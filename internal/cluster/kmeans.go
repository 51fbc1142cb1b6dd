package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/panicsafe"
)

// KMeansOptions configure the k-means baseline.
type KMeansOptions struct {
	// K is the number of clusters. Required.
	K int
	// MaxIterations bounds the Lloyd iterations (default 100).
	MaxIterations int
	// Seed drives the k-means++ initialisation.
	Seed int64
	// Restarts runs the algorithm this many times with different
	// initialisations and keeps the lowest-inertia result (default 1).
	Restarts int
	// Workers bounds the goroutines used for the assignment step and for
	// running restarts concurrently (≤ 0 means GOMAXPROCS). The result is
	// bit-identical for any Workers value: every restart draws from its own
	// seeded RNG, the blocked distance kernel computes every point-centroid
	// entry exactly once in a fixed order, and all floating-point
	// reductions (centroid update, inertia) keep a fixed serial order.
	Workers int
}

func (o KMeansOptions) withDefaults() KMeansOptions {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
	return o
}

// KMeansResult is the outcome of a k-means run. Centroids and Inertia are
// reported in float64 at every modeling precision; a float32 run widens
// its centroids once at the end.
type KMeansResult struct {
	Assignment *Assignment
	Centroids  []linalg.Vector
	// Inertia is the sum of squared distances of points to their assigned
	// centroid.
	Inertia float64
	// Iterations is the number of Lloyd iterations of the best restart.
	Iterations int
}

// KMeansMatCtx clusters the rows of x with Lloyd's algorithm and k-means++
// initialisation. It is the baseline the benchmark harness compares the
// paper's hierarchical clustering against. The assignment step runs on the
// blocked Gram-trick kernel (points × centroids squared distances in one
// tiled pass); all per-iteration scratch — the distance matrix, centroid
// norms, and the update step's sums and counts — is hoisted into buffers
// allocated once per restart, so a warmed Lloyd iteration allocates
// nothing. Restarts fan out over panicsafe.ForEach, each with its own RNG
// seeded from Seed and the restart index, so the outcome does not depend
// on scheduling: the best result is selected by scanning the restarts in
// index order with a strict inertia comparison, exactly as a serial loop
// would.
//
// A float32 matrix runs the whole Lloyd loop — distances, argmin, centroid
// updates — in float32 (halving the memory traffic of the assignment
// step), with the k-means++ sampling totals, the inertia reduction and the
// reported centroids kept in float64.
//
// ctx is observed before every restart, once per Lloyd iteration of each
// and between row strips of the blocked assignment kernel; on cancellation
// every in-flight restart exits at its next iteration boundary.
func KMeansMatCtx[F linalg.Float](ctx context.Context, x *linalg.Mat[F], opts KMeansOptions) (*KMeansResult, error) {
	opts = opts.withDefaults()
	n := x.Rows
	if n == 0 {
		return nil, ErrNoPoints
	}
	if opts.K < 1 || opts.K > n {
		return nil, fmt.Errorf("%w: k=%d with %d points", ErrBadK, opts.K, n)
	}

	xnorms := make(linalg.Vec[F], n)
	if err := linalg.RowNormsSquaredInto(xnorms, x); err != nil {
		return nil, err
	}

	workers := linalg.ResolveWorkers(opts.Workers)
	// Restarts run concurrently, bounded by the worker budget: at most
	// `concurrent` of them at once, each chunking its assignment step across
	// the remaining budget, so the total goroutine count stays within
	// Workers. The first failing restart, in restart order, is the error.
	concurrent := min(workers, opts.Restarts)
	inner := workers / concurrent
	results := make([]*KMeansResult, opts.Restarts)
	err := panicsafe.ForEach(ctx, opts.Restarts, concurrent, func(_, r int) error {
		rng := rand.New(rand.NewSource(opts.Seed + int64(r)*104729))
		var err error
		results[r], err = kmeansOnce(ctx, x, xnorms, opts, rng, inner)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Deterministic selection: lowest inertia, in restart order.
	var best *KMeansResult
	for _, res := range results {
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

// kmeansScratch is the per-restart working set of the Lloyd loop. Each
// buffer is allocated once and reused by every iteration, so the warmed
// update loop runs at zero allocations — pinned by
// TestKMeansZeroAllocsPerIteration.
type kmeansScratch[F linalg.Float] struct {
	centroids *linalg.Mat[F] // K × dim, the current centroids
	cnorms    linalg.Vec[F]  // squared centroid norms
	dists     *linalg.Mat[F] // n × K point-to-centroid squared distances
	sums      *linalg.Mat[F] // K × dim update-step accumulator
	counts    []int
	labels    []int
}

func newKMeansScratch[F linalg.Float](n, k, dim int) *kmeansScratch[F] {
	return &kmeansScratch[F]{
		centroids: linalg.NewMat[F](k, dim),
		cnorms:    make(linalg.Vec[F], k),
		dists:     linalg.NewMat[F](n, k),
		sums:      linalg.NewMat[F](k, dim),
		counts:    make([]int, k),
		labels:    make([]int, n),
	}
}

// kmeansOnce runs one restart. The RNG is consumed only by the serial
// phases (k-means++ initialisation and the empty-cluster reseeding of the
// update step), so the draw sequence — and with it the result — is
// independent of the worker count.
func kmeansOnce[F linalg.Float](ctx context.Context, x *linalg.Mat[F], xnorms linalg.Vec[F], opts KMeansOptions, rng *rand.Rand, workers int) (*KMeansResult, error) {
	n, dim := x.Rows, x.Cols
	done := ctx.Done()
	init, err := kmeansPlusPlusInit(x, opts.K, rng)
	if err != nil {
		return nil, err
	}
	sc := newKMeansScratch[F](n, opts.K, dim)
	for c, v := range init {
		copy(sc.centroids.Row(c), v)
	}
	var iterations int
	converged := false
	for iterations = 0; iterations < opts.MaxIterations; iterations++ {
		// One cancellation check per Lloyd iteration; the blocked kernel
		// below adds its own per-strip checks for large point sets.
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Assignment step on the blocked kernel: all point-centroid
		// squared distances in one tiled pass, then an argmin per point.
		// Each point's nearest centroid is independent of every other
		// point, so the worker chunking cannot change the outcome.
		changed, err := assignNearest(ctx, x, xnorms, sc, workers)
		if err != nil {
			return nil, err
		}
		if !changed && iterations > 0 {
			converged = true
			break
		}
		// Update step: kept serial so the centroid sums accumulate in point
		// order and the empty-cluster reseeding consumes the RNG in the
		// same sequence as a serial run.
		for i := range sc.sums.Data {
			sc.sums.Data[i] = 0
		}
		for c := range sc.counts {
			sc.counts[c] = 0
		}
		for i := 0; i < n; i++ {
			l := sc.labels[i]
			if err := sc.sums.Row(l).AddInPlace(x.Row(i)); err != nil {
				return nil, err
			}
			sc.counts[l]++
		}
		for c := 0; c < opts.K; c++ {
			row := sc.centroids.Row(c)
			if sc.counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(row, x.Row(rng.Intn(n)))
				continue
			}
			inv := F(1 / float64(sc.counts[c]))
			sum := sc.sums.Row(c)
			for j := range row {
				row[j] = sum[j] * inv
			}
		}
	}
	// Final inertia of the assigned labels against the final centroids:
	// distances from the blocked kernel, reduced serially in point order so
	// the sum is bit-identical for any worker count. On the convergence
	// exit the centroids have not moved since the last assignment pass, so
	// sc.dists already holds exactly these values and the kernel pass is
	// skipped; only the iteration-budget exit (centroids updated after the
	// last assignment) needs the recompute.
	if !converged {
		if err := pointCentroidDistances(ctx, x, xnorms, sc, workers); err != nil {
			return nil, err
		}
	}
	var inertia float64
	for i := 0; i < n; i++ {
		inertia += float64(sc.dists.At(i, sc.labels[i]))
	}
	return &KMeansResult{
		Assignment: &Assignment{Labels: sc.labels, K: opts.K},
		Centroids:  widenRows(sc.centroids),
		Inertia:    inertia,
		Iterations: iterations,
	}, nil
}

// widenRows returns the rows of m as float64 vectors: aliasing views for a
// float64 matrix, widened copies for a float32 one.
func widenRows[F linalg.Float](m *linalg.Mat[F]) []linalg.Vector {
	if m64, ok := any(m).(*linalg.Matrix); ok {
		return m64.RowViews()
	}
	out := make([]linalg.Vector, m.Rows)
	for i := range out {
		src := m.Row(i)
		row := make(linalg.Vector, m.Cols)
		for j, x := range src {
			row[j] = float64(x)
		}
		out[i] = row
	}
	return out
}

// pointCentroidDistances fills sc.dists with the squared distances of every
// point to every current centroid via the blocked cross kernel. The point
// norms are fixed for the whole run and shared read-only across restarts;
// only the centroid norms are refreshed.
func pointCentroidDistances[F linalg.Float](ctx context.Context, x *linalg.Mat[F], xnorms linalg.Vec[F], sc *kmeansScratch[F], workers int) error {
	if err := linalg.RowNormsSquaredInto(sc.cnorms, sc.centroids); err != nil {
		return err
	}
	return linalg.CrossSquaredIntoCtx(ctx, sc.dists, x, sc.centroids, xnorms, sc.cnorms, workers)
}

// assignNearest relabels every point to its nearest centroid (ties to the
// lowest centroid index, as in a serial scan) and reports whether any
// label changed. The serial path stays closure-free so a warmed Lloyd
// iteration performs no allocations.
func assignNearest[F linalg.Float](ctx context.Context, x *linalg.Mat[F], xnorms linalg.Vec[F], sc *kmeansScratch[F], workers int) (bool, error) {
	if err := pointCentroidDistances(ctx, x, xnorms, sc, workers); err != nil {
		return false, err
	}
	if workers <= 1 {
		return argminRange(sc, 0, x.Rows), nil
	}
	// One contiguous chunk of points per worker.
	n, chunks := x.Rows, min(workers, x.Rows)
	var changed atomic.Bool
	err := panicsafe.ForEach(ctx, chunks, chunks, func(_, c int) error {
		if argminRange(sc, c*n/chunks, (c+1)*n/chunks) {
			changed.Store(true)
		}
		return nil
	})
	return changed.Load(), err
}

// argminRange assigns points [lo, hi) to their nearest centroid by
// scanning the distance rows in ascending centroid order (ties to the
// lowest index) and reports whether any label changed.
func argminRange[F linalg.Float](sc *kmeansScratch[F], lo, hi int) bool {
	changed := false
	for i := lo; i < hi; i++ {
		row := sc.dists.Row(i)
		best, bestDist := 0, F(math.Inf(1))
		for c, d := range row {
			if d < bestDist {
				best, bestDist = c, d
			}
		}
		if sc.labels[i] != best {
			sc.labels[i] = best
			changed = true
		}
	}
	return changed
}

// kmeansPlusPlusInit picks initial centroids with the k-means++ scheme:
// each next centroid is drawn with probability proportional to its squared
// distance from the nearest centroid chosen so far. Per-point squared
// distances are accumulated at the matrix's own precision; the sampling
// total and the cumulative scan run in float64, so the float32 path draws
// from (essentially) the same distribution instead of a coarsely
// quantised one.
func kmeansPlusPlusInit[F linalg.Float](x *linalg.Mat[F], k int, rng *rand.Rand) ([]linalg.Vec[F], error) {
	n := x.Rows
	centroids := make([]linalg.Vec[F], 0, k)
	centroids = append(centroids, x.RowCopy(rng.Intn(n)))
	distSq := make([]float64, n)
	for len(centroids) < k {
		var total float64
		latest := centroids[len(centroids)-1]
		for i := 0; i < n; i++ {
			d, err := linalg.SquaredDistance(x.Row(i), latest)
			if err != nil {
				return nil, err
			}
			if len(centroids) == 1 || d < distSq[i] {
				distSq[i] = d
			}
			total += distSq[i]
		}
		if total == 0 {
			// All remaining points coincide with existing centroids.
			centroids = append(centroids, x.RowCopy(rng.Intn(n)))
			continue
		}
		target := rng.Float64() * total
		var cum float64
		chosen := n - 1
		for i, d := range distSq {
			cum += d
			if cum >= target {
				chosen = i
				break
			}
		}
		centroids = append(centroids, x.RowCopy(chosen))
	}
	return centroids, nil
}
