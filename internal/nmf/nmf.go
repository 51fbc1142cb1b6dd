// Package nmf implements non-negative matrix factorisation with
// multiplicative updates (Lee & Seung). It serves as the decomposition
// baseline the paper's related work points at (Cici et al., "On the
// decomposition of cell phone activity patterns"): instead of picking three
// frequency components and four hand-identified primary towers, NMF learns
// r non-negative basis traffic patterns H and per-tower weights W such that
// the tower-by-time traffic matrix V ≈ W·H. The benchmark harness compares
// this data-driven decomposition against the paper's frequency-domain
// convex combination.
//
// The updates run in Gram form: the denominators are (WᵀW)·H and W·(H·Hᵀ),
// so an iteration reads V twice — once transposed for the numerator Wᵀ·V,
// and once in row strips that each compute their rows of V·Hᵀ, update their
// rows of W and take their rows' ‖V − W·H‖ residual while the strip is
// cache-hot — with the n·m·r work on the linalg dot and residual kernels
// and everything else r-sized. The three-pass iteration this replaced
// (V·Hᵀ, then all of W, then the residual) is kept as factorizeThreePass in
// fused_oracle_test.go, and agrees with it in every bit.
package nmf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/panicsafe"
)

// Options configure a factorisation run.
type Options struct {
	// Rank is the number of basis patterns (required, ≥ 1).
	Rank int
	// MaxIterations bounds the multiplicative updates (default 200).
	MaxIterations int
	// Tolerance stops the iteration when the relative improvement of the
	// reconstruction error falls below it (default 1e-5).
	Tolerance float64
	// Seed drives the random initialisation.
	Seed int64
	// Workers bounds the goroutines used for the two n·m·r-sized passes of
	// an iteration — the numerator Wᵀ·V (parallel over time slots) and the
	// strip pass that forms V·Hᵀ, updates W and takes the reconstruction
	// residual (parallel over towers) — and for the one-time transpose of V
	// (≤ 0 means GOMAXPROCS). The r-sized products in between run on the
	// calling goroutine. The factorisation is deterministic: for a fixed
	// Seed the result is bit-identical for any Workers value, because every
	// output entry is computed by one worker in one fixed accumulation
	// order and the residual is folded serially in row order.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 200
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-5
	}
	return o
}

// Result is the outcome of a factorisation.
type Result struct {
	// W is the towers × rank weight matrix (how much of each basis pattern
	// each tower carries).
	W *linalg.Matrix
	// H is the rank × slots basis matrix (the learned temporal patterns).
	H *linalg.Matrix
	// FrobeniusError is ‖V − W·H‖_F after the final iteration.
	FrobeniusError float64
	// RelativeError is FrobeniusError / ‖V‖_F.
	RelativeError float64
	// Iterations is the number of update iterations performed.
	Iterations int
	// Converged reports that the relative improvement fell below
	// Options.Tolerance. When false the factorisation stopped at
	// Options.MaxIterations; Iterations alone cannot tell the two apart
	// when convergence falls on the last permitted iteration.
	Converged bool
}

// Errors returned by the factorisation.
var (
	ErrEmpty    = errors.New("nmf: empty matrix")
	ErrNegative = errors.New("nmf: negative input value")
	ErrBadRank  = errors.New("nmf: invalid rank")
)

const epsilon = 1e-12

// stripRows is the number of rows of V one unit of the strip pass owns:
// linalg's tile height, so the kernels a strip calls see exactly one of
// their own strips, and 32 rows of 2,016 float64 slots are 0.5 MB — the
// strip's second and third reads of its rows of V come from L2.
const stripRows = 32

// strip is one band of stripRows rows of the factorisation: views of V, W
// and the two W-update scratch matrices over those rows, and the band's
// slice of the row residuals. The views are built once per factorisation,
// so an iteration allocates nothing per strip.
type strip[F linalg.Float] struct {
	v, w, vht, whht linalg.Mat[F]
	rowErr          []float64
}

// update runs an iteration's W step and residual for the strip's rows:
// W ← W ∘ (V Hᵀ) / (W (H Hᵀ)) with hht = H·Hᵀ, then ‖v_i − (w·h)_i‖² of
// every row against the updated W. Both depend on no other row of V or W,
// so strips run in any order, on any goroutine, with the same bits. The
// kernels run serially inside the strip; the pool is across strips.
func (s *strip[F]) update(ctx context.Context, h, hht *linalg.Mat[F], eps F) error {
	if err := linalg.CrossDotIntoCtx(ctx, &s.vht, &s.v, h, 1); err != nil {
		return err
	}
	if err := s.w.MulInto(&s.whht, hht); err != nil {
		return err
	}
	for i := range s.w.Data {
		s.w.Data[i] *= s.vht.Data[i] / (s.whht.Data[i] + eps)
	}
	return linalg.RowResidualsSquaredIntoCtx(ctx, s.rowErr, &s.v, &s.w, h, 1)
}

// FactorizeContext is FactorizeMatContext for a matrix held as a slice of
// float64 row vectors. When the rows alias one contiguous buffer — a
// dataset's flat raw matrix — the factorisation reads it in place; loose
// rows are packed once. V is never written, so aliasing is safe.
func FactorizeContext(ctx context.Context, rows []linalg.Vector, opts Options) (*Result, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, ErrEmpty
	}
	v, err := linalg.RowsMatrix(rows)
	if err != nil {
		return nil, fmt.Errorf("nmf: %w", err)
	}
	return FactorizeMatContext(ctx, v, opts)
}

// FactorizeMatContext computes V ≈ W·H for a non-negative flat matrix at
// either modeling precision. The multiplicative updates — every matrix
// product and the element-wise ratio steps — run at the matrix's own
// element type; the float32 instantiation halves the memory traffic of the
// passes over V that dominate a factorisation at the paper's scale. The
// reconstruction-error reduction accumulates in float64 at both
// precisions, so the convergence decision sequence tracks the float64
// instantiation, and the reported W/H are widened to float64 once at the
// end.
//
// An iteration makes two passes over V. The H step takes Wᵀ·V as
// linalg.CrossDotIntoCtx of a transposed copy of V against Wᵀ and its
// denominator (WᵀW)·H through an r×r Gram matrix. The W step and the error
// share one panicsafe.ForEach over strips of stripRows rows (strip.update):
// each strip forms its rows of V·Hᵀ on the same dot kernels and of
// W·(H·Hᵀ), updates its rows of W, and takes their residuals from
// linalg.RowResidualsSquaredIntoCtx, which never stores W·H — row i of the
// update and of the residual needs only row i of V, so the strip reads its
// rows from memory once. The scratch is the transposed copy (the one n×m
// buffer, made once) plus r-sized factors; V itself is only read. The loop
// nest this replaced — V·Hᵀ, the W update and the residual as three
// whole-matrix steps — is factorizeThreePass in fused_oracle_test.go; the
// two agree in every bit of W, H, the errors and the iteration count.
//
// ctx is observed once per multiplicative-update iteration, between row
// strips of the Wᵀ·V kernel, and before each strip and each of its two
// kernels in the strip pass, so a cancelled factorisation returns within
// one update step and its worker pool drains before the call returns. A
// strip or kernel error — cancellation or a recovered worker panic — is
// returned as such, never read as convergence.
func FactorizeMatContext[F linalg.Float](ctx context.Context, v *linalg.Mat[F], opts Options) (*Result, error) {
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

	// Scratch for the multiplicative updates, allocated once and reused
	// across iterations: the transposed copy of V is the only n×m buffer (no
	// W·H product is ever materialised), everything else is r-sized.
	workers := linalg.ResolveWorkers(opts.Workers)
	vt := linalg.NewMat[F](m, n)
	if err := v.ParallelTransposeIntoCtx(ctx, vt, workers); err != nil {
		return nil, err
	}
	var (
		wt     = linalg.NewMat[F](r, n)
		vtw    = linalg.NewMat[F](m, r) // (Wᵀ·V)ᵀ
		gram   = linalg.NewMat[F](r, r) // WᵀW, then H·Hᵀ
		wtwh   = linalg.NewMat[F](r, m)
		wstep  = make([]F, 2*n*r) // V·Hᵀ, then W·(H·Hᵀ), seen through the strips
		rowErr = make([]float64, n)
	)
	// The update-rule damping term. 1e-12 is an ordinary normal float32
	// (min normal ≈ 1.2e-38), so the narrowing keeps its value.
	eps := F(epsilon)
	strips := make([]strip[F], (n+stripRows-1)/stripRows)
	for s := range strips {
		i0 := s * stripRows
		i1 := min(n, i0+stripRows)
		rowsOf := func(data []F, cols int) linalg.Mat[F] {
			return linalg.Mat[F]{Rows: i1 - i0, Cols: cols, Data: data[i0*cols : i1*cols]}
		}
		strips[s] = strip[F]{
			v: rowsOf(v.Data, m), w: rowsOf(w.Data, r),
			vht: rowsOf(wstep[:n*r], r), whht: rowsOf(wstep[n*r:], r),
			rowErr: rowErr[i0:i1],
		}
	}
	// Built once, not per iteration: a closure handed to the pool escapes.
	updateStrip := func(_, s int) error { return strips[s].update(ctx, h, gram, eps) }
	done := ctx.Done()
	prevErr := math.Inf(1)
	iterations, converged := 0, false
	for ; iterations < opts.MaxIterations; iterations++ {
		// One cancellation check per update iteration; the parallel
		// kernels below add per-strip checks.
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// H ← H ∘ (Wᵀ V) / ((Wᵀ W) H). The numerator comes out transposed,
		// as Vᵀ·W: rows of Vᵀ against rows of Wᵀ on the dot kernels.
		if err := w.TransposeInto(wt); err != nil {
			return nil, err
		}
		if err := linalg.CrossDotIntoCtx(ctx, vtw, vt, wt, workers); err != nil {
			return nil, err
		}
		if err := wt.GramInto(gram, 1); err != nil {
			return nil, err
		}
		if err := gram.MulInto(wtwh, h); err != nil {
			return nil, err
		}
		for k := 0; k < r; k++ {
			hrow, den := h.Data[k*m:(k+1)*m], wtwh.Data[k*m:(k+1)*m]
			for j := range hrow {
				hrow[j] *= vtw.Data[j*r+k] / (den[j] + eps)
			}
		}
		// W ← W ∘ (V Hᵀ) / (W (H Hᵀ)) and the row residuals against the new
		// W, strip by strip.
		if err := h.GramInto(gram, 1); err != nil {
			return nil, err
		}
		if err := panicsafe.ForEach(ctx, len(strips), workers, updateStrip); err != nil {
			return nil, err
		}
		// Convergence check on the reconstruction error ‖V − W·H‖: the
		// direct residual (the trace identity cancels catastrophically on
		// near-exact fits), float64 row sums folded in row order, so the
		// decision is the same for any worker count.
		var sq float64
		for _, e := range rowErr {
			sq += e
		}
		cur := math.Sqrt(sq)
		converged = prevErr-cur < opts.Tolerance*(prevErr+epsilon)
		prevErr = cur
		if converged {
			iterations++
			break
		}
	}

	rel := 0.0
	if norm > 0 {
		rel = prevErr / norm
	}
	return &Result{W: widen(w), H: widen(h), FrobeniusError: prevErr, RelativeError: rel, Iterations: iterations, Converged: converged}, nil
}

// widen returns m as a float64 matrix: m itself when it already is one, a
// widened copy otherwise.
func widen[F linalg.Float](m *linalg.Mat[F]) *linalg.Matrix {
	if m64, ok := any(m).(*linalg.Matrix); ok {
		return m64
	}
	out := linalg.NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = float64(x)
	}
	return out
}

// Reconstruct returns row i of the approximation W·H.
func (r *Result) Reconstruct(i int) (linalg.Vector, error) {
	if i < 0 || i >= r.W.Rows {
		return nil, fmt.Errorf("nmf: row %d out of range [0,%d)", i, r.W.Rows)
	}
	out := make(linalg.Vector, r.H.Cols)
	for k := 0; k < r.W.Cols; k++ {
		wik := r.W.At(i, k)
		if wik == 0 {
			continue
		}
		for j := 0; j < r.H.Cols; j++ {
			out[j] += wik * r.H.At(k, j)
		}
	}
	return out, nil
}

// BasisPattern returns basis pattern k (row k of H).
func (r *Result) BasisPattern(k int) (linalg.Vector, error) {
	if k < 0 || k >= r.H.Rows {
		return nil, fmt.Errorf("nmf: basis %d out of range [0,%d)", k, r.H.Rows)
	}
	return r.H.RowCopy(k), nil
}

// Weights returns the normalised weights of tower i over the basis patterns
// (summing to 1), the NMF analogue of the paper's convex-combination
// coefficients.
func (r *Result) Weights(i int) (linalg.Vector, error) {
	if i < 0 || i >= r.W.Rows {
		return nil, fmt.Errorf("nmf: row %d out of range [0,%d)", i, r.W.Rows)
	}
	out := r.W.RowCopy(i)
	total := out.Sum()
	if total > 0 {
		out.ScaleInPlace(1 / total)
	}
	return out, nil
}

// DominantBasis returns, for each tower, the index of its largest-weight
// basis pattern — a hard clustering induced by the factorisation, used to
// compare NMF against the hierarchical clustering.
func (r *Result) DominantBasis() []int {
	out := make([]int, r.W.Rows)
	for i := 0; i < r.W.Rows; i++ {
		best, bestVal := 0, -1.0
		for k := 0; k < r.W.Cols; k++ {
			if v := r.W.At(i, k); v > bestVal {
				best, bestVal = k, v
			}
		}
		out[i] = best
	}
	return out
}
