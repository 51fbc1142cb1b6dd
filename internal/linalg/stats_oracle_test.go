package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// quantileSortOracle is the clone-and-sort Quantile the in-place selection
// replaced: sort everything, read the two order statistics off the sorted
// copy. sort.Float64s puts NaNs first.
func quantileSortOracle(v Vector, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := v.Clone()
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sameQuantile is == with NaN equal to NaN; ±0 compare equal, which is all
// a sort promises about their order.
func sameQuantile(a, b float64) bool {
	return a == b || (a != a && b != b)
}

// Property: Quantile equals the sort-based form for every length 0–64 and
// the quantiles the repository asks for, on inputs with duplicates, ±Inf
// and NaN, and leaves its argument untouched.
func TestQuantileMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
	for n := 0; n <= 64; n++ {
		for trial := 0; trial < 12; trial++ {
			v := make(Vector, n)
			for i := range v {
				switch {
				case trial%3 == 1 && rng.Intn(2) == 0:
					v[i] = float64(rng.Intn(4)) // heavy ties
				case trial%4 == 3 && rng.Intn(5) == 0:
					v[i] = special[rng.Intn(len(special))]
				default:
					v[i] = rng.NormFloat64()
				}
			}
			if trial == 11 {
				for i := range v {
					v[i] = math.NaN()
				}
			}
			before := v.Clone()
			for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
				got, want := Quantile(v, q), quantileSortOracle(v, q)
				if !sameQuantile(got, want) {
					t.Fatalf("n=%d trial=%d q=%g: Quantile = %g, sort form %g (input %v)", n, trial, q, got, want, v)
				}
			}
			for i := range v {
				if math.Float64bits(v[i]) != math.Float64bits(before[i]) {
					t.Fatalf("n=%d trial=%d: Quantile modified its argument", n, trial)
				}
			}
		}
	}
}
