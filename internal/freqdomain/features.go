// Package freqdomain implements the frequency-domain representation of
// Section 5 of the paper: per-tower spectral features at the three
// principal components (one week, one day, half a day), variance of the
// spectrum across towers, the search for the most representative tower of
// each pattern, and the decomposition of an arbitrary tower into a convex
// combination of the four primary components.
package freqdomain

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/cluster"
	"repro/internal/dsp"
	"repro/internal/linalg"
)

// Errors returned by the feature extraction functions.
var (
	ErrNoVectors = errors.New("freqdomain: no traffic vectors")
	ErrBadShape  = errors.New("freqdomain: inconsistent vector shape")
)

// Features holds the amplitude and phase of one tower's traffic spectrum at
// the three principal frequency components. Amplitudes are normalised by
// the vector length so they are comparable across traces of different
// lengths; phases are in (-π, π].
type Features struct {
	// Index is the row of the tower in the originating dataset.
	Index int

	AmpWeek   float64 // |X[k_week]| / N
	PhaseWeek float64 // arg X[k_week]

	AmpDay   float64 // |X[k_day]| / N
	PhaseDay float64 // arg X[k_day]

	AmpHalfDay   float64 // |X[k_halfday]| / N
	PhaseHalfDay float64 // arg X[k_halfday]
}

// Vector3 returns the three-dimensional feature used by the paper for the
// polygon visualisation and the convex decomposition: amplitude of one day,
// phase of one day, amplitude of half a day (Section 5.3).
func (f Features) Vector3() linalg.Vector {
	return linalg.Vector{f.AmpDay, f.PhaseDay, f.AmpHalfDay}
}

// ExtractPlanContext computes the spectral features of every traffic
// vector using the caller's FFT plan, whose length must match the vectors.
// The vectors must cover nDays whole days (a multiple of 7 so the weekly
// bin exists). The per-tower transforms are fanned across the plan's batch
// worker pool, with the cancellation and worker fault isolation of
// dsp.BatchTransformContext.
func ExtractPlanContext(ctx context.Context, plan *dsp.Plan, vectors []linalg.Vector, nDays int) ([]Features, error) {
	if len(vectors) == 0 {
		return nil, ErrNoVectors
	}
	n := plan.N()
	week, day, half, err := dsp.PrincipalBins(n, nDays)
	if err != nil {
		return nil, err
	}
	signals := make([][]float64, len(vectors))
	for i, v := range vectors {
		if len(v) != n {
			return nil, fmt.Errorf("%w: vector %d has %d samples, want %d", ErrBadShape, i, len(v), n)
		}
		signals[i] = v
	}
	out := make([]Features, len(vectors))
	err = plan.BatchTransformContext(ctx, signals, func(i int, spectrum []complex128) error {
		scale := 1 / float64(n)
		cw, cd, ch := spectrum[week], spectrum[day], spectrum[half]
		out[i] = Features{
			Index:        i,
			AmpWeek:      cmplx.Abs(cw) * scale,
			PhaseWeek:    cmplx.Phase(cw),
			AmpDay:       cmplx.Abs(cd) * scale,
			PhaseDay:     cmplx.Phase(cd),
			AmpHalfDay:   cmplx.Abs(ch) * scale,
			PhaseHalfDay: cmplx.Phase(ch),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AmplitudeVariancePlan returns, for each frequency bin up to maxBin
// (exclusive), the variance across towers of the normalised DFT amplitude —
// the statistic plotted in Figure 13. The paper's observation is that the
// variance spikes at the three principal bins, which is what makes them the
// most discriminating features. It uses the caller's FFT plan, fanning the
// per-tower transforms across the batch worker pool.
func AmplitudeVariancePlan(ctx context.Context, plan *dsp.Plan, vectors []linalg.Vector, maxBin int) ([]float64, error) {
	if len(vectors) == 0 {
		return nil, ErrNoVectors
	}
	n := plan.N()
	if maxBin <= 0 || maxBin > n {
		return nil, fmt.Errorf("freqdomain: maxBin %d out of range (0,%d]", maxBin, n)
	}
	signals := make([][]float64, len(vectors))
	for i, v := range vectors {
		if len(v) != n {
			return nil, fmt.Errorf("%w: vector %d has %d samples, want %d", ErrBadShape, i, len(v), n)
		}
		signals[i] = v
	}
	amps := make([]linalg.Vector, maxBin)
	for k := range amps {
		amps[k] = make(linalg.Vector, len(vectors))
	}
	err := plan.BatchTransformContext(ctx, signals, func(i int, spectrum []complex128) error {
		for k := 0; k < maxBin; k++ {
			re, im := real(spectrum[k]), imag(spectrum[k])
			amps[k][i] = math.Sqrt(re*re+im*im) / float64(n)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, maxBin)
	for k := range out {
		out[k] = amps[k].Variance()
	}
	return out, nil
}

// ComponentStats summarises the distribution of one spectral component over
// a group of towers (one cell of Figure 16). Phase statistics are circular.
type ComponentStats struct {
	AmpMean, AmpStd     float64
	PhaseMean, PhaseStd float64
}

// GroupStats computes per-group statistics of the three principal
// components. groups maps a group index to the feature indices belonging to
// it (typically the members of each traffic-pattern cluster). The result is
// indexed [group][component] with components ordered week, day, half-day.
func GroupStats(features []Features, groups [][]int) ([][3]ComponentStats, error) {
	out := make([][3]ComponentStats, len(groups))
	for g, members := range groups {
		if len(members) == 0 {
			continue
		}
		amps := [3]linalg.Vector{}
		phases := [3]linalg.Vector{}
		for c := 0; c < 3; c++ {
			amps[c] = make(linalg.Vector, 0, len(members))
			phases[c] = make(linalg.Vector, 0, len(members))
		}
		for _, idx := range members {
			if idx < 0 || idx >= len(features) {
				return nil, fmt.Errorf("freqdomain: feature index %d out of range [0,%d)", idx, len(features))
			}
			f := features[idx]
			amps[0] = append(amps[0], f.AmpWeek)
			amps[1] = append(amps[1], f.AmpDay)
			amps[2] = append(amps[2], f.AmpHalfDay)
			phases[0] = append(phases[0], f.PhaseWeek)
			phases[1] = append(phases[1], f.PhaseDay)
			phases[2] = append(phases[2], f.PhaseHalfDay)
		}
		for c := 0; c < 3; c++ {
			pm, ps := linalg.CircularMeanStd(phases[c])
			out[g][c] = ComponentStats{
				AmpMean:   amps[c].Mean(),
				AmpStd:    amps[c].Std(),
				PhaseMean: pm,
				PhaseStd:  ps,
			}
		}
	}
	return out, nil
}

// RepOptions tune the representative-tower search.
type RepOptions struct {
	// DensityRadius is the feature-space radius used to measure local
	// density (non-noise check). Zero selects 15 % of the median pairwise
	// feature distance.
	DensityRadius float64
	// MinDensity is the minimum number of same-cluster towers (excluding
	// the candidate) that must lie within DensityRadius for a candidate to
	// be considered non-noise. Zero selects max(2, 1 % of the cluster).
	MinDensity int
}

// RepresentativeTowers finds, for each cluster, the most representative
// tower in the sense of Section 5.2 of the paper: not the centroid but the
// non-noise point farthest from the towers of every other cluster in the
// three-dimensional feature space. It returns one feature index per cluster
// (-1 for empty clusters).
func RepresentativeTowers(features []Features, assign *cluster.Assignment, opts RepOptions) ([]int, error) {
	if len(features) == 0 {
		return nil, ErrNoVectors
	}
	if len(assign.Labels) != len(features) {
		return nil, fmt.Errorf("freqdomain: %d labels for %d features", len(assign.Labels), len(features))
	}
	points := make([][3]float64, len(features))
	for i, f := range features {
		points[i] = [3]float64(f.Vector3())
	}
	radius := opts.DensityRadius
	if radius <= 0 {
		radius = 0.15 * medianPairwiseDistance(points)
		if radius <= 0 {
			radius = 1e-9
		}
	}

	members := assign.Members()
	out := make([]int, assign.K)
	for c := range out {
		out[c] = -1
	}
	// The cluster's own points and everyone else's, gathered contiguously
	// once per cluster.
	own := make([][3]float64, 0, len(points))
	others := make([][3]float64, 0, len(points))
	for c, mem := range members {
		if len(mem) == 0 {
			continue
		}
		own, others = own[:0], others[:0]
		for _, i := range mem {
			own = append(own, points[i])
		}
		for j, p := range points {
			if assign.Labels[j] != c {
				others = append(others, p)
			}
		}
		minDensity := opts.MinDensity
		if minDensity <= 0 {
			minDensity = len(mem) / 100
			if minDensity < 2 {
				minDensity = 2
			}
		}
		bestIdx, bestScore := -1, math.Inf(-1)
		var fallbackIdx int = mem[0]
		var fallbackScore = math.Inf(-1)
		for o, i := range mem {
			p := own[o]
			// Density within the own cluster.
			density := 0
			for o2, q := range own {
				if o2 != o && math.Sqrt(squaredDistance3(p, q)) <= radius {
					density++
				}
			}
			// Distance to the nearest tower of any other cluster: the root
			// of the least squared distance, which is the least root
			// because sqrt is monotone and correctly rounded.
			nearestSq := math.Inf(1)
			for _, q := range others {
				if sq := squaredDistance3(p, q); sq < nearestSq {
					nearestSq = sq
				}
			}
			nearestOther := math.Sqrt(nearestSq)
			if math.IsInf(nearestOther, 1) {
				// Single-cluster corner case: fall back to density.
				nearestOther = float64(density)
			}
			if nearestOther > fallbackScore {
				fallbackScore, fallbackIdx = nearestOther, i
			}
			if density < minDensity {
				continue
			}
			if nearestOther > bestScore {
				bestScore, bestIdx = nearestOther, i
			}
		}
		if bestIdx == -1 {
			// No candidate passed the density filter (tiny cluster); use
			// the unfiltered best so the caller still gets a representative.
			bestIdx = fallbackIdx
		}
		out[c] = bestIdx
	}
	return out, nil
}

// squaredDistance3 is linalg.SquaredDistance of two feature points, with
// its accumulation order: the squares added in ascending coordinate order.
func squaredDistance3(p, q [3]float64) float64 {
	d0, d1, d2 := p[0]-q[0], p[1]-q[1], p[2]-q[2]
	s := d0 * d0
	s += d1 * d1
	s += d2 * d2
	return s
}

// medianPairwiseDistance estimates the scale of the feature space. For
// large inputs it subsamples to bound the O(N²) cost. The sampled points
// run through the blocked condensed distance kernel and the median comes
// from a quickselect over the squared distances — no full sort, no
// per-pair appends. Because sqrt is monotone, selecting the middle order
// statistics of the squared distances and interpolating their roots is
// exactly Quantile(dists, 0.5) over the per-pair form, up to the
// Gram-trick's ≤1e-9 relative error on each distance.
func medianPairwiseDistance(points [][3]float64) float64 {
	const maxSample = 300
	step := 1
	if len(points) > maxSample {
		step = len(points) / maxSample
	}
	m := (len(points) + step - 1) / step
	if m < 2 {
		return 0
	}
	x := linalg.NewMatrix(m, 3)
	for r := range m {
		copy(x.Row(r), points[r*step][:])
	}
	d2 := make([]float64, m*(m-1)/2)
	norms := make(linalg.Vector, m)
	// The sample is ≤ 300 points of 3-dimensional features: the kernel's
	// serial path is already instant, so no fan-out.
	if err := linalg.PairwiseSquaredCondensedCtx(context.Background(), d2, x, norms, 1); err != nil {
		return 0
	}
	pos := 0.5 * float64(len(d2)-1)
	lo := int(math.Floor(pos))
	vlo := linalg.SelectKth(d2, lo)
	if lo == int(math.Ceil(pos)) {
		return math.Sqrt(vlo)
	}
	// The upper order statistic is the minimum of the partition's tail.
	vhi := d2[lo+1]
	for _, v := range d2[lo+1:] {
		if v < vhi {
			vhi = v
		}
	}
	frac := pos - float64(lo)
	return math.Sqrt(vlo)*(1-frac) + math.Sqrt(vhi)*frac
}
