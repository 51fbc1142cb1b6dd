package dsp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// forwardGeneric is cplan.forward with every radix-7 pass on stageGeneric:
// the reference the unrolled butterfly must match bit for bit.
func (c *cplan) forwardGeneric(src []complex128) []complex128 {
	a, b := slices.Clone(src), make([]complex128, len(src))
	for i := range c.stages {
		st := &c.stages[i]
		if st.r == 7 {
			stageGeneric(b, a, st, c.radix[7])
		} else {
			c.pass(b, a, st)
		}
		a, b = b, a
	}
	return a
}

// sameComplexBits reports the first index where got and want differ in any
// bit of either part, or -1. Any two NaNs match: which operand's NaN an
// add or multiply of two NaNs returns depends on the order the compiler
// gives a commutative instruction its operands, which the race build
// changes.
func sameComplexBits(got, want []complex128) int {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	for i := range want {
		if !same(real(got[i]), real(want[i])) || !same(imag(got[i]), imag(want[i])) {
			return i
		}
	}
	return -1
}

// randomComplex draws n complex samples, a few of them exact zeros of
// either sign so signed-zero arithmetic is exercised too.
func randomComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		switch rng.Intn(16) {
		case 0:
			x[i] = complex(math.Copysign(0, -1), 0)
		case 1:
			x[i] = complex(0, math.Copysign(0, -1))
		default:
			x[i] = complex(rng.NormFloat64()*100, rng.NormFloat64()*100)
		}
	}
	return x
}

// specialComplex draws n complex samples whose parts are zeros of either
// sign, infinities or NaN: the inputs on which only the same operations in
// the same order give the same bits. With negZeros every sample is
// (−0, −0), so every product in a butterfly is a signed zero and the sign
// of the sum depends on its zero start.
func specialComplex(rng *rand.Rand, n int, negZeros bool) []complex128 {
	negZero := math.Copysign(0, -1)
	parts := []float64{0, negZero, 0, negZero, math.Inf(1), math.Inf(-1), math.NaN()}
	x := make([]complex128, n)
	for i := range x {
		if negZeros {
			x[i] = complex(negZero, negZero)
			continue
		}
		// Mostly signed zeros, so many butterflies see nothing else.
		re, im := parts[rng.Intn(4)], parts[rng.Intn(4)]
		if rng.Intn(64) == 0 {
			re = parts[rng.Intn(len(parts))]
		}
		x[i] = complex(re, im)
	}
	return x
}

// The unrolled radix-7 butterfly is stageGeneric at r = 7, bit for bit, on
// ordinary samples and on signed zeros, infinities and NaN, with radix 7 in
// the first, a middle and the last stage across the lengths; and so is the
// whole transform built on it.
func TestRadix7MatchesGenericBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var first, middle, last bool
	for _, n := range []int{7, 49, 140, 343, 1008, 1890, 2016, 4032} {
		c := newCplan(n)
		sevens := 0
		for i := range c.stages {
			st := &c.stages[i]
			if st.r != 7 {
				continue
			}
			sevens++
			first = first || i == 0
			middle = middle || i > 0 && i < len(c.stages)-1
			last = last || i == len(c.stages)-1
			for _, src := range [][]complex128{randomComplex(rng, n), specialComplex(rng, n, false), specialComplex(rng, n, true)} {
				got, want := make([]complex128, n), make([]complex128, n)
				stageRadix7(got, src, st, c.radix[7])
				stageGeneric(want, src, st, c.radix[7])
				if k := sameComplexBits(got, want); k >= 0 {
					t.Fatalf("n=%d stage %d (m=%d s=%d): output %d is %v, generic %v", n, i, st.m, st.s, k, got[k], want[k])
				}
			}
		}
		if sevens == 0 {
			t.Fatalf("n=%d: no radix-7 stage", n)
		}
		src := randomComplex(rng, n)
		got := make([]complex128, n)
		c.forward(got, src)
		if k := sameComplexBits(got, c.forwardGeneric(src)); k >= 0 {
			t.Fatalf("n=%d: bin %d differs from the generic butterfly's", n, k)
		}
	}
	if !first || !middle || !last {
		t.Fatalf("radix 7 ran first=%v middle=%v last=%v; want all three", first, middle, last)
	}
}

// BenchmarkComplexFFT1008 is the complex transform behind the real
// transform of a 14-day row of 10-minute slots (2 016 samples), whose last
// pass is radix 7.
func BenchmarkComplexFFT1008(b *testing.B) {
	c := newCplan(1008)
	src := randomComplex(rand.New(rand.NewSource(1)), 1008)
	dst := make([]complex128, 1008)
	b.ReportAllocs()
	for b.Loop() {
		c.forward(dst, src)
	}
}
