package freqdomain

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// medianPairwiseOracle is the per-pair, fully-sorting implementation the
// quickselect-over-condensed-kernel version replaced.
func medianPairwiseOracle(points [][3]float64) float64 {
	const maxSample = 300
	step := 1
	if len(points) > maxSample {
		step = len(points) / maxSample
	}
	var dists linalg.Vector
	for i := 0; i < len(points); i += step {
		for j := i + step; j < len(points); j += step {
			d, err := linalg.Distance(points[i][:], points[j][:])
			if err != nil {
				return 0
			}
			dists = append(dists, d)
		}
	}
	if len(dists) == 0 {
		return 0
	}
	return linalg.Quantile(dists, 0.5)
}

// Property: the kernel+quickselect median agrees with the sort-everything
// per-pair oracle — including the subsampled large-input path, both
// interpolation parities, and the degenerate sizes.
func TestMedianPairwiseDistanceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{0, 1, 2, 3, 4, 17, 50, 299, 301, 1200} {
		points := make([][3]float64, n)
		for i := range points {
			points[i] = [3]float64{rng.NormFloat64(), rng.NormFloat64() * 3, rng.Float64()}
		}
		got := medianPairwiseDistance(points)
		want := medianPairwiseOracle(points)
		if diff := math.Abs(got - want); diff > 1e-9*(1+want) {
			t.Errorf("n=%d: median %g, oracle %g", n, got, want)
		}
	}
}

// The median must not allocate one slice per pair: a single condensed
// buffer plus the sample slice is the whole working set.
func TestMedianPairwiseDistanceAllocsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	points := make([][3]float64, 200)
	for i := range points {
		points[i] = [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	allocs := testing.AllocsPerRun(5, func() {
		medianPairwiseDistance(points)
	})
	// Packed sample + condensed buffer + norms, not O(N²).
	if allocs > 10 {
		t.Errorf("medianPairwiseDistance allocated %v times, want a small constant", allocs)
	}
}
