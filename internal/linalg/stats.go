package linalg

import (
	"fmt"
	"math"
	"sort"
)

// ZScoreNormalizeInto writes v normalised to zero mean and unit standard
// deviation (the "zero-score normalization" of the paper's traffic
// vectorizer) into dst, which must have the same length — in practice a
// row of a dataset's flat matrix backing. If the standard deviation of v
// is zero — a tower with constant traffic — dst is all zeros, which places
// it at the origin of the feature space rather than producing NaNs. The
// deviation and quotient are formed in float64 and only the final value
// narrows, so float32 rows differ from their float64 counterparts by at
// most a handful of roundings.
func ZScoreNormalizeInto[F Float](dst, v Vec[F]) error {
	if len(dst) != len(v) {
		return fmt.Errorf("%w: normalize %d into %d", ErrDimensionMismatch, len(v), len(dst))
	}
	if len(v) == 0 {
		return nil
	}
	m, s := v.Mean(), v.Std()
	if s == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	for i, x := range v {
		dst[i] = F((float64(x) - m) / s)
	}
	return nil
}

// NormalizeByMax returns a copy of v divided by its maximum value,
// matching the per-tower normalisation used for the heat maps of
// Figures 4 and 5. If the maximum is not positive the result is all zeros.
func NormalizeByMax(v Vector) Vector {
	out := make(Vector, len(v))
	max, _ := v.Max()
	if max <= 0 {
		return out
	}
	for i, x := range v {
		out[i] = x / max
	}
	return out
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of v using linear
// interpolation between order statistics. It returns 0 for an empty vector.
// v is not modified: the selection runs on a copy.
func Quantile(v Vector, q float64) float64 {
	return QuantileInPlace(v.Clone(), q)
}

// QuantileInPlace is Quantile on caller-owned scratch: it reorders v instead
// of copying it, so a caller that already holds a throwaway buffer (the
// anomaly sweep's per-worker scratch) pays no allocation. The order
// statistics come from SelectKth — the k-th element, then the minimum of
// the part above it as the interpolation partner — in expected O(n) instead
// of a full sort, and are the same elements a sort would put there, so the
// result equals the sort-based form's. NaNs are moved to the front first,
// where sort.Float64s orders them: SelectKth's partition loops compare
// against the pivot and do not terminate correctly on a NaN.
func QuantileInPlace(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	nans := 0
	for i, x := range v {
		if x != x {
			v[i], v[nans] = v[nans], x
			nans++
		}
	}
	// Order statistic k, plus the next one at weight frac when the quantile
	// falls between two.
	k, frac := 0, 0.0
	switch {
	case q <= 0:
	case q >= 1:
		k = len(v) - 1
	default:
		pos := q * float64(len(v)-1)
		k = int(math.Floor(pos))
		frac = pos - float64(k)
	}
	if k < nans {
		return math.NaN() // a NaN order statistic, or an interpolation from one
	}
	rest := v[nans:]
	vlo := SelectKth(rest, k-nans)
	if frac == 0 {
		return vlo
	}
	// SelectKth left everything above position k ≥ v[k], so the next order
	// statistic is the minimum of that tail.
	tail := rest[k-nans+1:]
	vhi := tail[0]
	for _, x := range tail[1:] {
		if x < vhi {
			vhi = x
		}
	}
	return vlo*(1-frac) + vhi*frac
}

// SelectKth partially reorders v in place so that v[k] holds the k-th
// smallest element (0-based) — everything before it is ≤ v[k], everything
// after it is ≥ v[k] — and returns that element. It is the expected-O(n)
// quickselect used for the median of the condensed pairwise-distance
// buffer, where a full sort of N(N−1)/2 entries would dominate the kernel
// itself. A range of at most selectSortCutoff elements — the window
// guard's ≤ 14 samples per slot of day arrive that short — is finished by
// insertion sort, which puts the same order statistics in place with no
// pivot to choose. It panics if k is out of range.
func SelectKth(v []float64, k int) float64 {
	if k < 0 || k >= len(v) {
		panic(fmt.Sprintf("linalg: SelectKth(%d) on %d elements", k, len(v)))
	}
	lo, hi := 0, len(v)-1
	for hi-lo >= selectSortCutoff {
		// Median-of-three pivot guards the common sorted/reversed inputs.
		mid := lo + (hi-lo)/2
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		pivot := v[mid]
		// Hoare partition.
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if v[i] >= pivot {
					break
				}
			}
			for {
				j--
				if v[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			v[i], v[j] = v[j], v[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	for i := lo + 1; i <= hi; i++ {
		x := v[i]
		j := i
		for ; j > lo && x < v[j-1]; j-- {
			v[j] = v[j-1]
		}
		v[j] = x
	}
	return v[k]
}

// selectSortCutoff is the range length at and below which SelectKth stops
// partitioning and sorts.
const selectSortCutoff = 16

// CDF computes the empirical cumulative distribution of the values in v at
// the given probe points. For each probe p the result is the fraction of
// values ≤ p.
func CDF(v Vector, probes []float64) []float64 {
	sorted := v.Clone()
	sort.Float64s(sorted)
	out := make([]float64, len(probes))
	if len(sorted) == 0 {
		return out
	}
	for i, p := range probes {
		// Number of values ≤ p.
		n := sort.SearchFloat64s(sorted, math.Nextafter(p, math.Inf(1)))
		out[i] = float64(n) / float64(len(sorted))
	}
	return out
}

// CircularMeanStd returns the circular mean and circular standard deviation
// of a set of angles in radians. Phases of DFT components (Section 5.2 of
// the paper) wrap around ±π, so their dispersion must be computed on the
// circle rather than the line.
func CircularMeanStd(angles Vector) (mean, std float64) {
	if len(angles) == 0 {
		return 0, 0
	}
	var s, c float64
	for _, a := range angles {
		s += math.Sin(a)
		c += math.Cos(a)
	}
	s /= float64(len(angles))
	c /= float64(len(angles))
	mean = math.Atan2(s, c)
	r := math.Sqrt(s*s + c*c)
	if r >= 1 {
		return mean, 0
	}
	if r <= 0 {
		return mean, math.Inf(1)
	}
	std = math.Sqrt(-2 * math.Log(r))
	return mean, std
}

// WrapPhase maps an angle in radians into the interval (-π, π].
func WrapPhase(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// PhaseDistance returns the absolute circular distance between two phases,
// a value in [0, π].
func PhaseDistance(a, b float64) float64 {
	d := math.Abs(WrapPhase(a - b))
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}
