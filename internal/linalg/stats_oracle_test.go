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

// Property: around selectSortCutoff — lengths 1–40, so ranges that are
// sorted at once, ranges partitioned once and then sorted, and ranges
// partitioned twice — SelectKth leaves at every k the element a full sort
// puts there, partitions the rest around it and keeps the multiset, on
// random, heavily tied, sorted, reversed and constant inputs; and with NaNs
// mixed in, QuantileInPlace over it still equals the sort form at every
// order statistic and between each pair of neighbours.
func TestSelectKthMatchesSortOracleAroundCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(389))
	shapes := []struct {
		name string
		at   func(i, n int) float64
	}{
		{"random", func(int, int) float64 { return rng.NormFloat64() }},
		{"ties", func(int, int) float64 { return float64(rng.Intn(3)) }},
		{"sorted", func(i, _ int) float64 { return float64(i / 2) }}, // pairs of equal neighbours
		{"reversed", func(i, n int) float64 { return float64((n - i) / 2) }},
		{"constant", func(int, int) float64 { return 7 }},
	}
	for n := 1; n <= 40; n++ {
		for _, shape := range shapes {
			name := shape.name
			in := make([]float64, n)
			for i := range in {
				in[i] = shape.at(i, n)
			}
			sorted := append([]float64(nil), in...)
			sort.Float64s(sorted)
			for k := 0; k < n; k++ {
				v := append([]float64(nil), in...)
				if got := SelectKth(v, k); got != sorted[k] || v[k] != got {
					t.Fatalf("%s n=%d k=%d: SelectKth = %g (v[k] = %g), sorted[k] = %g (input %v)", name, n, k, got, v[k], sorted[k], in)
				}
				for i, x := range v {
					if (i < k && x > v[k]) || (i > k && x < v[k]) {
						t.Fatalf("%s n=%d k=%d: v[%d] = %g is on the wrong side of v[k] = %g", name, n, k, i, x, v[k])
					}
				}
				sort.Float64s(v)
				for i := range v {
					if v[i] != sorted[i] {
						t.Fatalf("%s n=%d k=%d: SelectKth changed the multiset: %v, want %v", name, n, k, v, sorted)
					}
				}
			}
			// The same input with NaNs over a few entries, through the quantile.
			withNaN := Vector(append([]float64(nil), in...))
			for i := 0; i < n; i += 1 + rng.Intn(5) {
				withNaN[i] = math.NaN()
			}
			for _, v := range []Vector{in, withNaN} {
				for step := 0; step <= 2*(n-1); step++ {
					q := 1.0
					if n > 1 {
						q = float64(step) / float64(2*(n-1))
					}
					got, want := QuantileInPlace(v.Clone(), q), quantileSortOracle(v, q)
					if !sameQuantile(got, want) {
						t.Fatalf("%s n=%d q=%g: QuantileInPlace = %g, sort form %g (input %v)", name, n, q, got, want, v)
					}
				}
			}
		}
	}
}
