package dsp

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"testing"
)

// FuzzFFT feeds arbitrary lengths and sample values through the plan engine
// and checks it against the O(N²) oracle plus an inverse round trip. The
// first byte picks the length (1..256, covering the radix-2/4, radix-7,
// generic mixed-radix and Bluestein paths); the remaining bytes are decoded
// as float64 samples clamped to a numerically sane range. At lengths
// divisible by 7 the complex transform behind the spectrum must also equal,
// bit for bit, the one with every radix-7 pass on the generic butterfly.
func FuzzFFT(f *testing.F) {
	// The comments give the length, data[0]+1.
	f.Add([]byte{63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})                   // 64
	f.Add([]byte{128, 0xff, 0x80, 0x01})                               // 129 = 3·43, Bluestein
	f.Add([]byte{96})                                                  // 97: prime, Bluestein
	f.Add([]byte{97})                                                  // 98 = 2·7²
	f.Add([]byte{0})                                                   // unit transform
	f.Add([]byte{1})                                                   // 2
	f.Add([]byte{104, 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe}) // 105 = 3·5·7
	f.Add([]byte{105, 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe}) // 106 = 2·53, Bluestein
	f.Add([]byte{146, 0x07, 0x31, 0x57})                               // 147 = 3·7², odd
	f.Add([]byte{195, 0x70, 0x13})                                     // 196 = 2²·7², even
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
		if n%7 == 0 {
			// The plan's complex transform runs on the samples themselves
			// (odd n) or on them packed in pairs (even n).
			cp, in := p.full, c
			if p.half != nil {
				cp, in = p.half, make([]complex128, n/2)
				for i := range in {
					in[i] = complex(x[2*i], x[2*i+1])
				}
			}
			if cp.stages != nil {
				out, want := make([]complex128, len(in)), cp.forwardGeneric(in)
				cp.forward(out, in)
				if k := sameComplexBits(out, want); k >= 0 {
					t.Fatalf("n=%d bin %d: radix-7 butterfly %v, generic %v", n, k, out[k], want[k])
				}
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
