package linalg

import (
	"context"
	"fmt"
	"math"

	"repro/internal/panicsafe"
)

// Blocked Gram-matrix distance engine.
//
// The clustering and metric stages of the pipeline are dominated by pairwise
// Euclidean distances over ~10,000 rows of 2,016 slots (the service and
// every benchmark workload model 14 days of 10-minute slots; the paper's
// single week is 1,008). Computed per pair
// (one subtract-square loop per (i,j)), every pair streams both rows from
// memory: O(N²·d) loads for O(N²·d) flops, hopelessly memory-bound at scale.
// The kernels here instead tile the output into pairTile×pairTile blocks and
// compute dot products with a 4×4 register micro-kernel, so each pass over
// two row panels produces 16 outputs per 8 loads and row panels are reused
// from cache across a whole tile. Squared distances come from the Gram
// trick: ‖a−b‖² = ‖a‖² + ‖b‖² − 2·a·b, clamped at zero (the subtraction can
// go infinitesimally negative under rounding).
//
// Every kernel is generic over Float. On amd64 with AVX2+FMA the dot
// products run in assembly micro-kernels — dot_amd64.s for float64 (4-lane
// VFMADD231PD) and dot32_amd64.s for float32 (8-lane VFMADD231PS), selected
// by an element-type switch inside the generic bodies — roughly 4× the
// scalar flop rate, with the float32 kernels moving half the bytes per
// element on top. The fused row residual has its own pair of kernels
// (residual_amd64.s) behind the same gate; those use no FMA and return the
// bits of the portable loop. Everywhere else the portable register-tiled Go
// kernels below apply, instantiated per element type.
//
// Determinism contract: every output entry is computed by exactly one
// worker, and every entry — whichever kernel variant produces it —
// accumulates its dot product over k in one fixed scheme per build and
// element type (the two-accumulator FMA fold of the assembly kernels, or a
// single ascending accumulator in the portable ones). Results are therefore
// bit-identical for ANY worker count, the property the deterministic
// modeling engine is built on. Relative to the per-pair subtract-square
// form the Gram trick shifts low-order bits (one rounding of the norms and
// the recombination replaces d roundings of (a−b)²); the cluster and
// freqdomain oracles pin the agreement to ≤1e-9 relative error for float64
// and the float32 property tests to ≤1e-4 against the float64 oracle, and
// two rows with bit-identical contents still get an exactly-zero distance
// because their norms and their cross dot product run the identical
// operation sequence.
//
// All kernels write into caller-provided storage and allocate nothing on
// the serial (workers == 1) path, so warmed callers run at 0 allocs/op.

// pairTile is the row/column tile size of the blocked kernels: two panels
// of pairTile rows × 2,016 slots (14 days of 10-minute slots, what the
// service and the benchmark workloads model) are about 1 MiB together at
// float64 and half that at float32, which an L2 of a few MiB holds while a
// tile is computed; the paper's 1,008-slot week needs half of either.
const pairTile = 32

// stripWorkers normalises a worker count against the number of strips.
func stripWorkers(strips, workers int) int {
	workers = ResolveWorkers(workers)
	if workers > strips {
		workers = strips
	}
	return workers
}

// stripLoop runs strips in order on the caller's goroutine, polling ctx
// between them. It is what panicsafe.ForEach does with one worker, kept
// here because a closure handed to ForEach escapes: every kernel below
// takes this path when stripWorkers says one worker — so the warmed serial
// kernels stay allocation-free — and ForEach only above it.
func stripLoop(ctx context.Context, strips int, fn func(s int)) error {
	done := ctx.Done()
	for s := 0; s < strips; s++ {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		fn(s)
	}
	return nil
}

// dot4x4 accumulates the 16 dot products between four x rows and four y
// rows into acc. Each accumulator receives its products in ascending-k
// order, matching dotRows exactly, so the same (i,j) pair produces the same
// bits whichever kernel computes it.
func dot4x4[F Float](a0, a1, a2, a3, b0, b1, b2, b3 []F, acc *[16]F) {
	var s00, s01, s02, s03 F
	var s10, s11, s12, s13 F
	var s20, s21, s22, s23 F
	var s30, s31, s32, s33 F
	n := len(a0)
	a1, a2, a3 = a1[:n], a2[:n], a3[:n]
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for k, x0 := range a0 {
		x1, x2, x3 := a1[k], a2[k], a3[k]
		y0, y1, y2, y3 := b0[k], b1[k], b2[k], b3[k]
		s00 += x0 * y0
		s01 += x0 * y1
		s02 += x0 * y2
		s03 += x0 * y3
		s10 += x1 * y0
		s11 += x1 * y1
		s12 += x1 * y2
		s13 += x1 * y3
		s20 += x2 * y0
		s21 += x2 * y1
		s22 += x2 * y2
		s23 += x2 * y3
		s30 += x3 * y0
		s31 += x3 * y1
		s32 += x3 * y2
		s33 += x3 * y3
	}
	acc[0], acc[1], acc[2], acc[3] = s00, s01, s02, s03
	acc[4], acc[5], acc[6], acc[7] = s10, s11, s12, s13
	acc[8], acc[9], acc[10], acc[11] = s20, s21, s22, s23
	acc[12], acc[13], acc[14], acc[15] = s30, s31, s32, s33
}

// dot4x1 accumulates four x rows against one y row (the j edge of a tile).
func dot4x1[F Float](a0, a1, a2, a3, b []F) (s0, s1, s2, s3 F) {
	n := len(a0)
	a1, a2, a3, b = a1[:n], a2[:n], a3[:n], b[:n]
	for k, x0 := range a0 {
		y := b[k]
		s0 += x0 * y
		s1 += a1[k] * y
		s2 += a2[k] * y
		s3 += a3[k] * y
	}
	return
}

// dotRows is the scalar edge kernel: a single ascending-k accumulator.
func dotRows[F Float](a, b []F) F {
	b = b[:len(a)]
	var s F
	for k, x := range a {
		s += x * b[k]
	}
	return s
}

// dotPair is the path-dispatching single-pair kernel: the AVX2+FMA vector
// dot of the matching element width where available, the portable scalar
// one otherwise. Row norms and tile edges go through it so every dot in a
// run shares one accumulation scheme — the exact-zero guarantee of the
// Gram trick depends on that.
func dotPair[F Float](a, b []F) F {
	switch av := any(a).(type) {
	case []float64:
		if useAsm && len(av) > 0 {
			return F(dotVecAsm(&av[0], &any(b).([]float64)[0], len(av)))
		}
	case []float32:
		if useAsmF32 && len(av) > 0 {
			return F(dotVecAsm32(&av[0], &any(b).([]float32)[0], len(av)))
		}
	}
	return dotRows(a, b)
}

// pairTileRect fills out[(i-i0)*stride + (j-j0)] for i in [i0,i1), j in
// [j0,j1) with either the raw dot product of x row i and y row j (norms nil)
// or the clamped squared distance xn[i] + yn[j] − 2·dot (norms given).
func pairTileRect[F Float](x, y *Mat[F], xn, yn Vec[F], i0, i1, j0, j1 int, out []F, stride int) {
	d := x.Cols
	xd, yd := x.Data, y.Data
	emit := func(i, j int, dot F) {
		v := dot
		if xn != nil {
			v = xn[i] + yn[j] - 2*dot
			if v < 0 {
				v = 0
			}
		}
		out[(i-i0)*stride+(j-j0)] = v
	}
	if d > 0 {
		switch xdv := any(xd).(type) {
		case []float64:
			if useAsm {
				ydv := any(yd).([]float64)
				var quad [4]float64
				for i := i0; i < i1; i++ {
					a := xdv[i*d : (i+1)*d]
					j := j0
					for ; j+4 <= j1; j += 4 {
						dot1x4Asm(&a[0], &ydv[j*d], d, d, &quad)
						emit(i, j+0, F(quad[0]))
						emit(i, j+1, F(quad[1]))
						emit(i, j+2, F(quad[2]))
						emit(i, j+3, F(quad[3]))
					}
					for ; j < j1; j++ {
						emit(i, j, F(dotVecAsm(&a[0], &ydv[j*d], d)))
					}
				}
				return
			}
		case []float32:
			if useAsmF32 {
				ydv := any(yd).([]float32)
				var quad [4]float32
				for i := i0; i < i1; i++ {
					a := xdv[i*d : (i+1)*d]
					j := j0
					for ; j+4 <= j1; j += 4 {
						dot1x4Asm32(&a[0], &ydv[j*d], d, d, &quad)
						emit(i, j+0, F(quad[0]))
						emit(i, j+1, F(quad[1]))
						emit(i, j+2, F(quad[2]))
						emit(i, j+3, F(quad[3]))
					}
					for ; j < j1; j++ {
						emit(i, j, F(dotVecAsm32(&a[0], &ydv[j*d], d)))
					}
				}
				return
			}
		}
	}
	var acc [16]F
	i := i0
	for ; i+4 <= i1; i += 4 {
		a0 := xd[(i+0)*d : (i+1)*d]
		a1 := xd[(i+1)*d : (i+2)*d]
		a2 := xd[(i+2)*d : (i+3)*d]
		a3 := xd[(i+3)*d : (i+4)*d]
		j := j0
		for ; j+4 <= j1; j += 4 {
			dot4x4(a0, a1, a2, a3,
				yd[(j+0)*d:(j+1)*d], yd[(j+1)*d:(j+2)*d], yd[(j+2)*d:(j+3)*d], yd[(j+3)*d:(j+4)*d], &acc)
			for di := 0; di < 4; di++ {
				for dj := 0; dj < 4; dj++ {
					emit(i+di, j+dj, acc[di*4+dj])
				}
			}
		}
		for ; j < j1; j++ {
			s0, s1, s2, s3 := dot4x1(a0, a1, a2, a3, yd[j*d:(j+1)*d])
			emit(i+0, j, s0)
			emit(i+1, j, s1)
			emit(i+2, j, s2)
			emit(i+3, j, s3)
		}
	}
	for ; i < i1; i++ {
		a := xd[i*d : (i+1)*d]
		for j := j0; j < j1; j++ {
			emit(i, j, dotRows(a, yd[j*d:(j+1)*d]))
		}
	}
}

// RowNormsSquaredInto fills dst[i] with the squared Euclidean norm of row i
// of x, accumulated in the same ascending order as the tile kernels so that
// identical rows yield exactly-zero Gram-trick distances. dst must have
// length x.Rows.
func RowNormsSquaredInto[F Float](dst Vec[F], x *Mat[F]) error {
	if len(dst) != x.Rows {
		return fmt.Errorf("%w: %d norms for %d rows", ErrDimensionMismatch, len(dst), x.Rows)
	}
	d := x.Cols
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*d : (i+1)*d]
		dst[i] = dotPair(row, row)
	}
	return nil
}

// GramInto writes the Gram matrix m·mᵀ into dst (m.Rows × m.Rows) using up
// to `workers` goroutines (≤ 0 means GOMAXPROCS). Only the upper triangle
// is computed — symmetry halves the flops — and mirrored into the lower
// one. dst must not share storage with m. The result is bit-identical for
// any worker count.
func (m *Mat[F]) GramInto(dst *Mat[F], workers int) error {
	n := m.Rows
	if dst.Rows != n || dst.Cols != n {
		return fmt.Errorf("%w: gram of %dx%d into %dx%d", ErrDimensionMismatch, n, m.Cols, dst.Rows, dst.Cols)
	}
	ctx := context.Background()
	if err := symmetricTiles(ctx, m, nil, dst.Data, workers); err != nil {
		return err
	}
	return mirrorLower(ctx, dst, workers)
}

// PairwiseSquaredIntoCtx writes the full symmetric matrix of squared
// Euclidean distances between the rows of x into dst (x.Rows × x.Rows)
// using up to `workers` goroutines (≤ 0 means GOMAXPROCS). norms is caller
// scratch of length x.Rows (nil allocates); on return it holds the squared
// row norms. The diagonal is exactly zero and the result is bit-identical
// for any worker count. Row strips fan out over panicsafe.ForEach; on an
// early exit dst holds partial results and must not be used.
func PairwiseSquaredIntoCtx[F Float](ctx context.Context, dst *Mat[F], x *Mat[F], norms Vec[F], workers int) error {
	n := x.Rows
	if dst.Rows != n || dst.Cols != n {
		return fmt.Errorf("%w: pairwise of %d rows into %dx%d", ErrDimensionMismatch, n, dst.Rows, dst.Cols)
	}
	if norms == nil {
		norms = make(Vec[F], n)
	}
	if err := RowNormsSquaredInto(norms, x); err != nil {
		return err
	}
	if err := symmetricTiles(ctx, x, norms, dst.Data, workers); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] = 0
	}
	return mirrorLower(ctx, dst, workers)
}

// symmetricTiles computes the upper triangle (including the diagonal) of
// the pairwise dot products (norms nil) or squared distances (norms given)
// of x's rows into the row-major n×n buffer out. Workers claim row strips
// of pairTile rows; within a strip every tile right of the diagonal runs
// the rectangular kernel and diagonal tiles compute their own lower half
// redundantly (a ≤1/tiles fraction of the work) to keep the kernel uniform.
func symmetricTiles[F Float](ctx context.Context, x *Mat[F], norms Vec[F], out []F, workers int) error {
	strips := (x.Rows + pairTile - 1) / pairTile
	if w := stripWorkers(strips, workers); w > 1 {
		return panicsafe.ForEach(ctx, strips, w, func(_, s int) error { symmetricStrip(x, norms, out, s); return nil })
	}
	return stripLoop(ctx, strips, func(s int) { symmetricStrip(x, norms, out, s) })
}

func symmetricStrip[F Float](x *Mat[F], norms Vec[F], out []F, s int) {
	n := x.Rows
	i0 := s * pairTile
	i1 := min(n, i0+pairTile)
	for j0 := i0; j0 < n; j0 += pairTile {
		j1 := min(n, j0+pairTile)
		pairTileRect(x, x, norms, norms, i0, i1, j0, j1, out[i0*n+j0:], n)
	}
}

// mirrorLower copies the strict upper triangle of the symmetric matrix dst
// into its lower triangle, partitioned by destination row so each entry is
// written by exactly one worker.
func mirrorLower[F Float](ctx context.Context, dst *Mat[F], workers int) error {
	strips := (dst.Rows + pairTile - 1) / pairTile
	if w := stripWorkers(strips, workers); w > 1 {
		return panicsafe.ForEach(ctx, strips, w, func(_, s int) error { mirrorStrip(dst, s); return nil })
	}
	return stripLoop(ctx, strips, func(s int) { mirrorStrip(dst, s) })
}

func mirrorStrip[F Float](dst *Mat[F], s int) {
	n := dst.Rows
	r0 := s * pairTile
	r1 := min(n, r0+pairTile)
	for r := r0; r < r1; r++ {
		row := dst.Data[r*n : (r+1)*n]
		for i := 0; i < r; i++ {
			row[i] = dst.Data[i*n+r]
		}
	}
}

// PairwiseSquaredCondensedCtx writes the squared Euclidean distances
// between the rows of x into dst in condensed upper-triangular layout: row
// i's distances to j ∈ (i, n) occupy a contiguous run starting at
// i·(2n−i−1)/2, the layout the clustering engine agglomerates over. dst
// must have length n·(n−1)/2; norms is caller scratch of length n (nil
// allocates). Up to `workers` goroutines (≤ 0 means GOMAXPROCS) each own
// whole row strips — the unit the clustering engine's promptness bound is
// stated in — so the result is bit-identical for any worker count, and the
// serial path performs no allocations. On an early exit dst holds partial
// results and must not be used.
func PairwiseSquaredCondensedCtx[F Float](ctx context.Context, dst []F, x *Mat[F], norms Vec[F], workers int) error {
	n := x.Rows
	if len(dst) != n*(n-1)/2 {
		return fmt.Errorf("%w: condensed buffer %d for %d rows (want %d)", ErrDimensionMismatch, len(dst), n, n*(n-1)/2)
	}
	if norms == nil {
		norms = make(Vec[F], n)
	}
	if err := RowNormsSquaredInto(norms, x); err != nil {
		return err
	}
	strips := (n + pairTile - 1) / pairTile
	if w := stripWorkers(strips, workers); w > 1 {
		return panicsafe.ForEach(ctx, strips, w, func(_, s int) error { condensedStrip(dst, x, norms, s); return nil })
	}
	return stripLoop(ctx, strips, func(s int) { condensedStrip(dst, x, norms, s) })
}

// condensedStrip fills the condensed rows of one pairTile strip.
func condensedStrip[F Float](dst []F, x *Mat[F], norms Vec[F], s int) {
	n, d := x.Rows, x.Cols
	rowStart := func(i int) int { return i * (2*n - i - 1) / 2 }
	i0 := s * pairTile
	i1 := min(n, i0+pairTile)
	// Diagonal tile: only j > i survives, so the 4×4 interior does not
	// apply cleanly; the scalar kernel covers the triangle.
	for i := i0; i < i1; i++ {
		a := x.Data[i*d : (i+1)*d]
		base := rowStart(i) - i - 1
		for j := i + 1; j < i1; j++ {
			v := norms[i] + norms[j] - 2*dotPair(a, x.Data[j*d:(j+1)*d])
			if v < 0 {
				v = 0
			}
			dst[base+j] = v
		}
	}
	// Tiles right of the diagonal: full rectangles on the 4×4 kernel,
	// written row by row into the condensed runs.
	var tile [pairTile * pairTile]F
	for j0 := i1; j0 < n; j0 += pairTile {
		j1 := min(n, j0+pairTile)
		pairTileRect(x, x, norms, norms, i0, i1, j0, j1, tile[:], pairTile)
		for i := i0; i < i1; i++ {
			base := rowStart(i) - i - 1
			trow := tile[(i-i0)*pairTile:]
			for j := j0; j < j1; j++ {
				dst[base+j] = trow[j-j0]
			}
		}
	}
}

// crossStrip fills one pairTile strip of the cross-dot matrix.
func crossStrip[F Float](dst *Mat[F], x, y *Mat[F], s int) {
	m := y.Rows
	i0 := s * pairTile
	i1 := min(x.Rows, i0+pairTile)
	for j0 := 0; j0 < m; j0 += pairTile {
		j1 := min(m, j0+pairTile)
		pairTileRect(x, y, nil, nil, i0, i1, j0, j1, dst.Data[i0*m+j0:], m)
	}
}

// CrossDotIntoCtx writes x·yᵀ — the dot product of every row of x with
// every row of y — into dst (x.Rows × y.Rows) using up to `workers`
// goroutines (≤ 0 means GOMAXPROCS). It runs the strips, tiles and dot
// micro-kernels of the distance kernels without their norms, so a product
// whose right factor is only available row-major as its transpose (V·Hᵀ
// from V and H) needs no explicit transpose and runs on the assembly
// kernels where the build has them. Cancellation is observed between
// strips and worker panics come back as the returned error; on early exit
// dst holds partial results. Bit-identical for any worker count, and the
// serial path performs no allocations.
func CrossDotIntoCtx[F Float](ctx context.Context, dst *Mat[F], x, y *Mat[F], workers int) error {
	if x.Cols != y.Cols {
		return fmt.Errorf("%w: cross dots between %d-col and %d-col rows", ErrDimensionMismatch, x.Cols, y.Cols)
	}
	if dst.Rows != x.Rows || dst.Cols != y.Rows {
		return fmt.Errorf("%w: cross dots %dx%d into %dx%d", ErrDimensionMismatch, x.Rows, y.Rows, dst.Rows, dst.Cols)
	}
	strips := (x.Rows + pairTile - 1) / pairTile
	if w := stripWorkers(strips, workers); w > 1 {
		return panicsafe.ForEach(ctx, strips, w, func(_, s int) error { crossStrip(dst, x, y, s); return nil })
	}
	return stripLoop(ctx, strips, func(s int) { crossStrip(dst, x, y, s) })
}

// residualChunk is the number of columns of w·h a residual row holds at a
// time: a stack buffer, so the kernel needs no per-worker scratch. It must
// stay a multiple of 4 — the four partial sums of a row are keyed by
// column mod 4 across chunks.
const residualChunk = 256

// RowResidualsSquaredIntoCtx fills dst[i] with ‖v_i − (w·h)_i‖², the
// squared reconstruction residual of row i, without materialising the
// product: each row of w·h is formed a residualChunk of columns at a time
// (ascending-k accumulation at the matrices' element type, as MulInto
// would) and consumed at once. The subtraction runs at the element type and
// the squares accumulate in float64 at either precision, in four partial
// sums per row keyed by column mod 4 and folded (s0+s1)+(s2+s3). dst must
// have length v.Rows and w at least one column. On amd64 with AVX2 the
// whole vectors of a row run in the assembly kernels of residual_amd64.s,
// which round every product and sum separately in the same order, so the
// result does not depend on which path ran. Up to `workers` goroutines
// (≤ 0 means GOMAXPROCS) each own whole row strips and every dst entry is
// written by exactly one of them, so the result is bit-identical for any
// worker count; a caller that wants ‖v − w·h‖² folds dst in row order.
// Cancellation is observed between strips and worker panics come back as
// the returned error; the serial path performs no allocations.
func RowResidualsSquaredIntoCtx[F Float](ctx context.Context, dst []float64, v, w, h *Mat[F], workers int) error {
	if w.Cols != h.Rows || w.Cols == 0 {
		return fmt.Errorf("%w: %dx%d times %dx%d", ErrDimensionMismatch, w.Rows, w.Cols, h.Rows, h.Cols)
	}
	if v.Rows != w.Rows || v.Cols != h.Cols {
		return fmt.Errorf("%w: residual of %dx%d against a %dx%d product", ErrDimensionMismatch, v.Rows, v.Cols, w.Rows, h.Cols)
	}
	if len(dst) != v.Rows {
		return fmt.Errorf("%w: %d residuals for %d rows", ErrDimensionMismatch, len(dst), v.Rows)
	}
	strips := (v.Rows + pairTile - 1) / pairTile
	if nw := stripWorkers(strips, workers); nw > 1 {
		return panicsafe.ForEach(ctx, strips, nw, func(_, s int) error { residualStrip(dst, v, w, h, s); return nil })
	}
	return stripLoop(ctx, strips, func(s int) { residualStrip(dst, v, w, h, s) })
}

// residualStrip fills the row residuals of one pairTile strip: the whole
// vectors of a row go through the assembly kernel where there is one, the
// columns left — all of them on the portable path — through residualLanes.
// The two produce the same bits, so which one ran never shows in dst.
func residualStrip[F Float](dst []float64, v, w, h *Mat[F], s int) {
	m, r := v.Cols, w.Cols
	i0 := s * pairTile
	i1 := min(v.Rows, i0+pairTile)
	for i := i0; i < i1; i++ {
		vrow := v.Data[i*m : (i+1)*m]
		wrow := w.Data[i*r : (i+1)*r]
		var lanes [4]float64
		from := residualVectors(&lanes, vrow, wrow, h.Data)
		residualLanes(&lanes, vrow, wrow, h.Data, from)
		dst[i] = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
	}
}

// residualVectors is the path dispatch of the residual, as dotPair is of
// the dots: where the build and the CPU have the AVX2 kernels
// (residual_amd64.s) it runs the row's whole vectors — 4 float64 or 8
// float32 columns each — through them and returns the number of columns
// taken; otherwise it returns 0 and leaves lanes alone.
func residualVectors[F Float](lanes *[4]float64, vrow, wrow, hd []F) int {
	m, r := len(vrow), len(wrow)
	switch x := any(vrow).(type) {
	case []float64:
		if n := m &^ 3; useAsm && n > 0 {
			residualLanesAsm(&x[0], &any(wrow).([]float64)[0], &any(hd).([]float64)[0], m, r, n, lanes)
			return n
		}
	case []float32:
		if n := m &^ 7; useAsmF32 && n > 0 {
			residualLanesAsm32(&x[0], &any(wrow).([]float32)[0], &any(hd).([]float32)[0], m, r, n, lanes)
			return n
		}
	}
	return 0
}

// residualLanes is the portable residual loop and the reference of the
// assembly kernels: it adds the squares of v − w·h over columns
// [from, len(vrow)) of one row onto the four partial sums in lanes. from
// must be a multiple of 4. The first r−1 terms of an entry of w·h
// accumulate in the chunk buffer, four k per pass (one load and store of
// the buffer per four products); the last term is added in the pass that
// subtracts from v and squares, so the finished product row is never
// stored. Every entry accumulates in ascending k.
func residualLanes[F Float](lanes *[4]float64, vrow, wrow, hd []F, from int) {
	m, last := len(vrow), len(wrow)-1
	s0, s1, s2, s3 := lanes[0], lanes[1], lanes[2], lanes[3]
	var buf [residualChunk]F
	for j0 := from; j0 < m; j0 += residualChunk {
		j1 := min(m, j0+residualChunk)
		x := vrow[j0:j1]
		p := buf[:len(x)]
		for j := range p {
			p[j] = 0
		}
		k := 0
		for ; k+4 <= last; k += 4 {
			a0, a1, a2, a3 := wrow[k], wrow[k+1], wrow[k+2], wrow[k+3]
			h0 := hd[(k+0)*m+j0 : (k+0)*m+j1][:len(p)]
			h1 := hd[(k+1)*m+j0 : (k+1)*m+j1][:len(p)]
			h2 := hd[(k+2)*m+j0 : (k+2)*m+j1][:len(p)]
			h3 := hd[(k+3)*m+j0 : (k+3)*m+j1][:len(p)]
			for j := range p {
				p[j] = (((p[j] + a0*h0[j]) + a1*h1[j]) + a2*h2[j]) + a3*h3[j]
			}
		}
		for ; k < last; k++ {
			a := wrow[k]
			hk := hd[k*m+j0 : k*m+j1][:len(p)]
			for j := range p {
				p[j] += a * hk[j]
			}
		}
		a := wrow[last]
		hl := hd[last*m+j0 : last*m+j1][:len(p)]
		j := 0
		for ; j+4 <= len(p); j += 4 {
			d0 := float64(x[j+0] - (p[j+0] + a*hl[j+0]))
			d1 := float64(x[j+1] - (p[j+1] + a*hl[j+1]))
			d2 := float64(x[j+2] - (p[j+2] + a*hl[j+2]))
			d3 := float64(x[j+3] - (p[j+3] + a*hl[j+3]))
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		// Only the last chunk can have a tail; its columns keep their
		// mod-4 lanes because every chunk starts on a multiple of 4.
		for ; j < len(p); j++ {
			d := float64(x[j] - (p[j] + a*hl[j]))
			switch j % 4 {
			case 0:
				s0 += d * d
			case 1:
				s1 += d * d
			default:
				s2 += d * d
			}
		}
	}
	lanes[0], lanes[1], lanes[2], lanes[3] = s0, s1, s2, s3
}

// AssignedSquaredDistance returns the squared Euclidean distance between
// row i of x and row j of y via the Gram trick, using precomputed row
// norms (RowNormsSquaredInto). The dot product runs the kernels' shared
// accumulation scheme, so the value is bit-identical to the same
// norms-and-dot sum over the corresponding CrossDotIntoCtx entry —
// including the exact zero for bit-identical rows — without computing any
// of the other pairs. This is the one-pair-per-point form the
// cluster-scatter statistic wants.
func AssignedSquaredDistance[F Float](x, y *Mat[F], xnorms, ynorms Vec[F], i, j int) (float64, error) {
	if x.Cols != y.Cols {
		return 0, fmt.Errorf("%w: assigned distance between %d-col and %d-col rows", ErrDimensionMismatch, x.Cols, y.Cols)
	}
	if i < 0 || i >= x.Rows || j < 0 || j >= y.Rows {
		return 0, fmt.Errorf("%w: assigned distance (%d,%d) of %dx%d", ErrDimensionMismatch, i, j, x.Rows, y.Rows)
	}
	if len(xnorms) != x.Rows || len(ynorms) != y.Rows {
		return 0, fmt.Errorf("%w: %d/%d norms for %dx%d assigned distance", ErrDimensionMismatch, len(xnorms), len(ynorms), x.Rows, y.Rows)
	}
	d := x.Cols
	v := xnorms[i] + ynorms[j] - 2*dotPair(x.Data[i*d:(i+1)*d], y.Data[j*d:(j+1)*d])
	if v < 0 {
		v = 0
	}
	return float64(v), nil
}

// SquaredDistancesSqrtInPlaceCtx replaces every entry of d with its square
// root, splitting the buffer into 16k-element chunks across up to
// `workers` goroutines (≤ 0 means GOMAXPROCS). Element-wise, so
// bit-identical for any worker count.
func SquaredDistancesSqrtInPlaceCtx[F Float](ctx context.Context, d []F, workers int) error {
	const chunk = 1 << 14
	strips := (len(d) + chunk - 1) / chunk
	if w := stripWorkers(strips, workers); w > 1 {
		return panicsafe.ForEach(ctx, strips, w, func(_, s int) error { sqrtStrip(d, s*chunk, min(len(d), s*chunk+chunk)); return nil })
	}
	return stripLoop(ctx, strips, func(s int) { sqrtStrip(d, s*chunk, min(len(d), s*chunk+chunk)) })
}

func sqrtStrip[F Float](d []F, lo, hi int) {
	for i := lo; i < hi; i++ {
		d[i] = F(math.Sqrt(float64(d[i])))
	}
}
