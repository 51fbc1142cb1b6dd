package nmf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/linalg"
)

// This file retains the superseded five-product update loop as the test
// oracle for FactorizeMatContext: per iteration it forms Wᵀ·V, V·Hᵀ,
// (W·H)·Hᵀ and W·H (twice — once for the W update, once inside the error)
// with the ascending-k MulInto kernels and two explicit transposes, and it
// recomputes the error once more after the loop. Same update rule, same
// initialisation, same convergence test; only the association of the
// denominators and the accumulation scheme of the dot products differ from
// the production loop, so the two agree to rounding. Strictly slower.

// factorizeOracle is FactorizeMatContext as it stood before the Gram-form
// rewrite, verbatim.
func factorizeOracle[F linalg.Float](ctx context.Context, v *linalg.Mat[F], opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n, m := v.Rows, v.Cols
	if n == 0 || m == 0 {
		return nil, ErrEmpty
	}
	if opts.Rank < 1 || opts.Rank > n || opts.Rank > m {
		return nil, fmt.Errorf("%w: rank %d for a %dx%d matrix", ErrBadRank, opts.Rank, n, m)
	}
	var norm float64
	for idx, x := range v.Data {
		xf := float64(x)
		if x < 0 || math.IsNaN(xf) || math.IsInf(xf, 0) {
			return nil, fmt.Errorf("%w: row %d column %d is %g", ErrNegative, idx/m, idx%m, xf)
		}
		norm += xf * xf
	}
	norm = math.Sqrt(norm)

	rng := rand.New(rand.NewSource(opts.Seed + 1))
	r := opts.Rank
	w := linalg.NewMat[F](n, r)
	h := linalg.NewMat[F](r, m)
	// Initialise with small positive random values scaled to the data.
	// The draws happen in float64 and narrow afterwards, so both
	// precisions consume the RNG identically and start from (up to one
	// rounding) the same point.
	scale := norm / float64(r) / math.Sqrt(float64(n*m))
	if scale <= 0 {
		scale = 1
	}
	for i := range w.Data {
		w.Data[i] = F(rng.Float64()*scale + epsilon)
	}
	for i := range h.Data {
		h.Data[i] = F(rng.Float64()*scale + epsilon)
	}

	// Scratch matrices for the multiplicative updates, allocated once and
	// reused across iterations (the updates would otherwise reallocate
	// every W·H-shaped product each round).
	var (
		wt   = linalg.NewMat[F](r, n)
		wtv  = linalg.NewMat[F](r, m)
		wtw  = linalg.NewMat[F](r, r)
		wtwh = linalg.NewMat[F](r, m)
		ht   = linalg.NewMat[F](m, r)
		vht  = linalg.NewMat[F](n, r)
		wh   = linalg.NewMat[F](n, m)
		whht = linalg.NewMat[F](n, r)
	)
	// The update-rule damping term. 1e-12 is an ordinary normal float32
	// (min normal ≈ 1.2e-38), so the narrowing keeps its value.
	eps := F(epsilon)
	workers := linalg.ResolveWorkers(opts.Workers)
	done := ctx.Done()
	prevErr := math.Inf(1)
	iterations := 0
	for ; iterations < opts.MaxIterations; iterations++ {
		// One cancellation check per update iteration; the parallel
		// products below add per-block checks for large factors.
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// H ← H ∘ (Wᵀ V) / (Wᵀ W H)
		if err := w.ParallelTransposeIntoCtx(ctx, wt, workers); err != nil {
			return nil, err
		}
		if err := wt.ParallelMulIntoCtx(ctx, wtv, v, workers); err != nil {
			return nil, err
		}
		if err := wt.ParallelMulIntoCtx(ctx, wtw, w, workers); err != nil {
			return nil, err
		}
		if err := wtw.ParallelMulIntoCtx(ctx, wtwh, h, workers); err != nil {
			return nil, err
		}
		for i := range h.Data {
			h.Data[i] *= wtv.Data[i] / (wtwh.Data[i] + eps)
		}
		// W ← W ∘ (V Hᵀ) / (W H Hᵀ)
		if err := h.ParallelTransposeIntoCtx(ctx, ht, workers); err != nil {
			return nil, err
		}
		if err := v.ParallelMulIntoCtx(ctx, vht, ht, workers); err != nil {
			return nil, err
		}
		if err := w.ParallelMulIntoCtx(ctx, wh, h, workers); err != nil {
			return nil, err
		}
		if err := wh.ParallelMulIntoCtx(ctx, whht, ht, workers); err != nil {
			return nil, err
		}
		for i := range w.Data {
			w.Data[i] *= vht.Data[i] / (whht.Data[i] + eps)
		}
		// Convergence check on the reconstruction error.
		cur := frobeniusErrorOracle(v, w, h, wh, workers)
		if prevErr-cur < opts.Tolerance*(prevErr+epsilon) {
			prevErr = cur
			iterations++
			break
		}
		prevErr = cur
	}

	finalErr := frobeniusErrorOracle(v, w, h, wh, workers)
	rel := 0.0
	if norm > 0 {
		rel = finalErr / norm
	}
	return &Result{W: widen(w), H: widen(h), FrobeniusError: finalErr, RelativeError: rel, Iterations: iterations}, nil
}

// frobeniusErrorOracle computes ‖V − W·H‖_F, using wh as the product scratch. The
// residual reduction stays serial (fixed summation order) and accumulates
// in float64 at either precision, so the error — and therefore the
// convergence decision — is identical for any worker count.
func frobeniusErrorOracle[F linalg.Float](v, w, h, wh *linalg.Mat[F], workers int) float64 {
	if err := w.ParallelMulIntoCtx(context.Background(), wh, h, workers); err != nil {
		return math.Inf(1)
	}
	var s float64
	for i := range v.Data {
		d := float64(v.Data[i] - wh.Data[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// matOf packs loose rows into a flat matrix of either precision.
func matOf[F linalg.Float](rows []linalg.Vector) *linalg.Mat[F] {
	out := linalg.NewMat[F](len(rows), len(rows[0]))
	for i, row := range rows {
		for j, x := range row {
			out.Data[i*out.Cols+j] = F(x)
		}
	}
	return out
}

// maxRelDiff is the largest element difference between two equally shaped
// matrices, relative to the larger matrix's largest magnitude.
func maxRelDiff(a, b *linalg.Matrix) float64 {
	var diff, scale float64
	for i := range a.Data {
		diff = math.Max(diff, math.Abs(a.Data[i]-b.Data[i]))
		scale = math.Max(scale, math.Max(math.Abs(a.Data[i]), math.Abs(b.Data[i])))
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

// oracleCases are matrix shapes — fewer rows than a parallel block, row
// counts off the strip size, column counts off the 4-wide unrolls and past
// one residual chunk — each with the ranks factorised on it: every side of
// the four-k residual pass on the small ones, a pair on the large ones
// (the oracle is slow under the race detector).
var oracleCases = []struct {
	rows, cols, mix int
	ranks           []int
}{
	{9, 40, 2, []int{1, 3, 4, 5, 7}},
	{15, 61, 3, []int{1, 3, 4, 5, 7}},
	{45, 70, 4, []int{1, 3, 4, 5, 7}},
	{70, 515, 5, []int{3, 5}},
	{120, 90, 4, []int{3, 4}},
}

// TestFactorizeMatchesOracle pins the Gram-form loop to the five-product
// one it replaced: at float64 the same iteration count and dominant bases
// and factors within 1e-9; at float32 — where the two loops round
// differently at 2⁻²⁴ per step — the same decisions.
func TestFactorizeMatchesOracle(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testFactorizeMatchesOracle[float64](t, 1e-9) })
	t.Run("float32", func(t *testing.T) { testFactorizeMatchesOracle[float32](t, 0) })
}

func testFactorizeMatchesOracle[F linalg.Float](t *testing.T, tol float64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	for _, c := range oracleCases {
		rows, _ := syntheticMix(rng, c.rows, c.cols, c.mix)
		v := matOf[F](rows)
		s := [2]int{c.rows, c.cols}
		for _, rank := range c.ranks {
			// The loose tolerance makes some runs stop mid-way (153 and 194
			// iterations among these) instead of at the 3 or 200 the default
			// gives, so the convergence decision is compared too.
			opts := Options{Rank: rank, Seed: int64(rank), Tolerance: 1e-3, Workers: 2}
			got, err := FactorizeMatContext(ctx, v, opts)
			if err != nil {
				t.Fatalf("%v rank %d: %v", s, rank, err)
			}
			want, err := factorizeOracle(ctx, v, opts)
			if err != nil {
				t.Fatalf("%v rank %d: oracle: %v", s, rank, err)
			}
			if got.Iterations != want.Iterations {
				t.Errorf("%v rank %d: %d iterations, oracle %d", s, rank, got.Iterations, want.Iterations)
			}
			if !reflect.DeepEqual(got.DominantBasis(), want.DominantBasis()) {
				t.Errorf("%v rank %d: dominant bases differ from the oracle's", s, rank)
			}
			if tol == 0 {
				continue
			}
			if d := maxRelDiff(got.W, want.W); d > tol {
				t.Errorf("%v rank %d: W differs from the oracle's by %g", s, rank, d)
			}
			if d := maxRelDiff(got.H, want.H); d > tol {
				t.Errorf("%v rank %d: H differs from the oracle's by %g", s, rank, d)
			}
			if d := math.Abs(got.FrobeniusError - want.FrobeniusError); d > tol*want.FrobeniusError {
				t.Errorf("%v rank %d: error %g, oracle %g", s, rank, got.FrobeniusError, want.FrobeniusError)
			}
		}
	}
}
