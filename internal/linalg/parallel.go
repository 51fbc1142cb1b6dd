package linalg

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/panicsafe"
)

// Parallel matrix kernels for the modeling engine.
//
// Both kernels partition their output into fixed-size row blocks fanned
// out over panicsafe.ForEach (which states the cancellation, panic and
// error contract once, for every pool in the pipeline). Every output
// element is computed by exactly one worker using the same inner-loop
// order as the serial MulInto/TransposeInto, so the results are
// bit-identical to the serial kernels for ANY worker count — the property
// the deterministic modeling engine (internal/nmf, internal/cluster) is
// built on. The block is the unit of cancellation: coarse enough to keep
// the hot loops free of per-element checks, fine enough that a cancelled
// kernel returns within one block of work per worker.

// parallelBlockRows is the number of output rows per work unit. Blocks keep
// the atomic-counter contention negligible while still load-balancing
// uneven rows. It must stay a multiple of the 4-row unroll of mulRows so
// the parallel schedule groups exactly the rows the serial kernel groups —
// the bit-identity contract depends on it.
const parallelBlockRows = 16

// parallelMinWork is the approximate flop count below which the goroutine
// fan-out costs more than it saves and the serial kernel is used directly.
const parallelMinWork = 1 << 15

// ResolveWorkers normalises a worker-count option: values ≤ 0 mean "use
// every core" (GOMAXPROCS).
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// rowBlocks runs fn over [0, rows) split into parallelBlockRows-size blocks
// fanned out over panicsafe.ForEach on `workers` (> 1) goroutines. fn must
// be safe to call concurrently for disjoint row ranges.
func rowBlocks(ctx context.Context, rows, workers int, fn func(lo, hi int)) error {
	blocks := (rows + parallelBlockRows - 1) / parallelBlockRows
	return panicsafe.ForEach(ctx, blocks, workers, func(_, b int) error {
		lo := b * parallelBlockRows
		fn(lo, min(rows, lo+parallelBlockRows))
		return nil
	})
}

// ParallelMulIntoCtx writes m · other into dst using up to `workers`
// goroutines (≤ 0 means GOMAXPROCS). dst must be Rows×other.Cols and must
// not share storage with m or other. The result is bit-identical to
// MulInto for any worker count: output rows are partitioned into blocks and
// each row is accumulated in the same k-then-j order as the serial kernel.
// ctx is observed between row blocks (and once up front on the serial
// path), and a worker panic comes back as an error instead of killing the
// process.
//
// No main package reaches it since the NMF updates moved to Gram form; it
// stays because internal/nmf's factorizeOracle — the reference the Gram
// form is tested against — is built on it.
func (m *Mat[F]) ParallelMulIntoCtx(ctx context.Context, dst, other *Mat[F], workers int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.Cols != other.Rows {
		return fmt.Errorf("%w: %dx%d times %dx%d", ErrDimensionMismatch, m.Rows, m.Cols, other.Rows, other.Cols)
	}
	if dst.Rows != m.Rows || dst.Cols != other.Cols {
		return fmt.Errorf("%w: product %dx%d into %dx%d", ErrDimensionMismatch, m.Rows, other.Cols, dst.Rows, dst.Cols)
	}
	workers = ResolveWorkers(workers)
	if workers == 1 || m.Rows*m.Cols*other.Cols < parallelMinWork {
		return m.MulInto(dst, other)
	}
	return rowBlocks(ctx, m.Rows, workers, func(lo, hi int) {
		mulRows(dst, m, other, lo, hi)
	})
}

// ParallelTransposeIntoCtx writes mᵀ into dst using up to `workers`
// goroutines (≤ 0 means GOMAXPROCS). dst must be Cols×Rows and must not
// share storage with m. Each destination element is written exactly once,
// so the result is bit-identical to TransposeInto for any worker count.
// Cancellation and worker panic recovery are as for ParallelMulIntoCtx.
func (m *Mat[F]) ParallelTransposeIntoCtx(ctx context.Context, dst *Mat[F], workers int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		return fmt.Errorf("%w: transpose of %dx%d into %dx%d", ErrDimensionMismatch, m.Rows, m.Cols, dst.Rows, dst.Cols)
	}
	workers = ResolveWorkers(workers)
	if workers == 1 || m.Rows*m.Cols < parallelMinWork {
		return m.TransposeInto(dst)
	}
	// Partition the SOURCE rows: worker w copies rows [lo,hi) of m into
	// columns [lo,hi) of dst. Disjoint writes, no synchronisation needed.
	return rowBlocks(ctx, m.Rows, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			for j, x := range row {
				dst.Data[j*dst.Cols+i] = x
			}
		}
	})
}
