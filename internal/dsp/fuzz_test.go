package dsp

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"testing"
)

// FuzzFFT feeds arbitrary lengths and sample values through the plan engine
// and checks it against the O(N²) oracle plus an inverse round trip. The
// first byte picks the length (1..256, covering the radix-2/4, generic
// mixed-radix and Bluestein paths); the remaining bytes are decoded as
// float64 samples clamped to a numerically sane range.
func FuzzFFT(f *testing.F) {
	f.Add([]byte{63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{128, 0xff, 0x80, 0x01})
	f.Add([]byte{97})                                                  // prime, Bluestein
	f.Add([]byte{1})                                                   // unit transform
	f.Add([]byte{105, 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe}) // 3·5·7
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) + 1
		payload := data[1:]
		x := make([]float64, n)
		var scale float64
		for i := range x {
			var bits uint64
			if 8*i+8 <= len(payload) {
				bits = binary.LittleEndian.Uint64(payload[8*i : 8*i+8])
			} else if len(payload) > 0 {
				bits = uint64(payload[i%len(payload)]) * 0x9e3779b97f4a7c15
			} else {
				bits = uint64(i+1) * 0x9e3779b97f4a7c15
			}
			v := math.Float64frombits(bits)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = float64(bits%2048)/1024 - 1
			}
			// Clamp to keep the oracle comparison within a fixed tolerance.
			v = math.Mod(v, 1024)
			x[i] = v
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		if scale < 1 {
			scale = 1
		}

		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, n)
		if err := p.Transform(got, x); err != nil {
			t.Fatal(err)
		}
		c := make([]complex128, n)
		for i, v := range x {
			c[i] = complex(v, 0)
		}
		ref := directDFT(c)
		tol := 1e-9 * scale * float64(n)
		for k := range ref {
			if d := cmplx.Abs(got[k] - ref[k]); d > tol {
				t.Fatalf("n=%d bin %d: plan %v vs direct %v (diff %g > %g)", n, k, got[k], ref[k], d, tol)
			}
		}
		back := make([]float64, n)
		if err := p.InverseReal(back, got); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if d := math.Abs(back[i] - x[i]); d > tol {
				t.Fatalf("n=%d round trip[%d] = %g, want %g (diff %g)", n, i, back[i], x[i], d)
			}
		}
	})
}
