package linalg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Tests of the two kernels the NMF update loop is built on: CrossDotIntoCtx
// (x·yᵀ on the dot micro-kernels) and RowResidualsSquaredIntoCtx (the fused
// ‖v − w·h‖² row residuals). Both run at float64 and float32, on the
// assembly path and the portable one.

// onEachPrecision runs the float64 and float32 instantiations of a test,
// each on the active kernel path and, where that is assembly, on the
// portable one.
func onEachPrecision(t *testing.T, f64, f32 func(t *testing.T)) {
	t.Run("float64", func(t *testing.T) { onKernelPaths(t, f64) })
	t.Run("float32", func(t *testing.T) { onKernelPathsF32(t, f32) })
}

// nonNegativeMat fills a rows×cols matrix with values in [0, scale), with a
// sprinkling of exact zeros — the shape of NMF factors and traffic data.
func nonNegativeMat[F Float](rng *rand.Rand, rows, cols int, scale float64) *Mat[F] {
	m := NewMat[F](rows, cols)
	for i := range m.Data {
		if rng.Intn(16) != 0 {
			m.Data[i] = F(rng.Float64() * scale)
		}
	}
	return m
}

// tolOf is the agreement budget against a float64 reference: reassociation
// noise at float64, the accumulated-rounding budget f32Tol at float32.
func tolOf[F Float]() float64 {
	var x F
	if _, ok := any(x).(float32); ok {
		return f32Tol
	}
	return 1e-12
}

// crossDotShapes are {x rows, y rows, cols}: fewer than a tile, tile
// multiples and tile + remainder on the strip axis; every 1×4 edge count
// on the y axis; empty, scalar-tail and vector-width column counts.
var crossDotShapes = [][3]int{
	{1, 1, 1}, {3, 5, 0}, {5, 3, 7}, {13, 4, 16}, {31, 7, 33}, {32, 5, 64},
	{33, 1, 129}, {70, 9, 21}, {97, 5, 250},
}

func TestCrossDotMatchesNaiveOracle(t *testing.T) {
	onEachPrecision(t, testCrossDotMatchesNaive[float64], testCrossDotMatchesNaive[float32])
}

func testCrossDotMatchesNaive[F Float](t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	tol := tolOf[F]()
	for _, s := range crossDotShapes {
		x := nonNegativeMat[F](rng, s[0], s[2], 3)
		y := nonNegativeMat[F](rng, s[1], s[2], 3)
		dst := nonNegativeMat[F](rng, s[0], s[1], 1) // pre-soiled: the kernel must overwrite
		if err := CrossDotIntoCtx(context.Background(), dst, x, y, 1); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		for i := 0; i < x.Rows; i++ {
			for j := 0; j < y.Rows; j++ {
				var want float64
				for k := 0; k < x.Cols; k++ {
					want += float64(x.At(i, k)) * float64(y.At(j, k))
				}
				if got := float64(dst.At(i, j)); math.Abs(got-want) > tol*(1+want) {
					t.Fatalf("shape %v: dot[%d][%d] = %g, naive %g", s, i, j, got, want)
				}
			}
		}
	}
}

// residualShapes are {rows, cols, rank}: column counts around the chunk
// size and off the 4-lane unroll, ranks on every side of the four-k pass
// (the last k is always fused, so rank 5 is one full pass + the fused one).
var residualShapes = [][3]int{
	{1, 1, 1}, {3, 2, 2}, {5, 7, 3}, {13, 255, 4}, {31, 256, 5}, {32, 257, 7},
	{33, 515, 5}, {45, 1030, 9}, {70, 33, 6}, {97, 18, 10},
}

func TestRowResidualsMatchNaiveOracle(t *testing.T) {
	onEachPrecision(t, testRowResidualsMatchNaive[float64], testRowResidualsMatchNaive[float32])
}

func testRowResidualsMatchNaive[F Float](t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for _, s := range residualShapes {
		n, m, r := s[0], s[1], s[2]
		v := nonNegativeMat[F](rng, n, m, 10)
		w := nonNegativeMat[F](rng, n, r, 2)
		h := nonNegativeMat[F](rng, r, m, 2)
		dst := make([]float64, n)
		for i := range dst {
			dst[i] = -1 // pre-soiled
		}
		if err := RowResidualsSquaredIntoCtx(context.Background(), dst, v, w, h, 1); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		for i := 0; i < n; i++ {
			// The product entry accumulates at F in ascending k exactly as
			// the kernel's; only the float64 sum over columns associates
			// differently, hence the float64 tolerance at both precisions.
			var want float64
			for j := 0; j < m; j++ {
				var p F
				for k := 0; k < r; k++ {
					p += w.At(i, k) * h.At(k, j)
				}
				d := float64(v.At(i, j) - p)
				want += d * d
			}
			if math.Abs(dst[i]-want) > 1e-12*(1+want) {
				t.Fatalf("shape %v: residual[%d] = %g, naive %g", s, i, dst[i], want)
			}
		}
	}
}

func TestProductKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	onEachPrecision(t, testProductKernelsAcrossWorkers[float64], testProductKernelsAcrossWorkers[float32])
}

func testProductKernelsAcrossWorkers[F Float](t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	const n, m, r = 131, 515, 5
	v := nonNegativeMat[F](rng, n, m, 10)
	w := nonNegativeMat[F](rng, n, r, 2)
	h := nonNegativeMat[F](rng, r, m, 2)
	ctx := context.Background()

	dotBase := NewMat[F](n, r)
	resBase := make([]float64, n)
	if err := CrossDotIntoCtx(ctx, dotBase, v, h, 1); err != nil {
		t.Fatal(err)
	}
	if err := RowResidualsSquaredIntoCtx(ctx, resBase, v, w, h, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts() {
		dot := nonNegativeMat[F](rng, n, r, 1)
		res := make([]float64, n)
		if err := CrossDotIntoCtx(ctx, dot, v, h, workers); err != nil {
			t.Fatal(err)
		}
		if err := RowResidualsSquaredIntoCtx(ctx, res, v, w, h, workers); err != nil {
			t.Fatal(err)
		}
		for i := range dotBase.Data {
			if dot.Data[i] != dotBase.Data[i] {
				t.Fatalf("workers %d: CrossDotIntoCtx element %d differs from serial", workers, i)
			}
		}
		for i := range resBase {
			if res[i] != resBase[i] {
				t.Fatalf("workers %d: row residual %d differs from serial", workers, i)
			}
		}
	}
}

func TestProductKernelDimensionErrors(t *testing.T) {
	ctx := context.Background()
	v, w, h := NewMatrix(10, 6), NewMatrix(10, 3), NewMatrix(3, 6)
	if err := CrossDotIntoCtx(ctx, NewMatrix(10, 3), v, NewMatrix(3, 5), 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("cross dots mismatched cols: %v", err)
	}
	if err := CrossDotIntoCtx(ctx, NewMatrix(9, 3), v, h, 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("cross dots wrong dst: %v", err)
	}
	if err := RowResidualsSquaredIntoCtx(ctx, make([]float64, 10), v, w, NewMatrix(4, 6), 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("residual inner mismatch: %v", err)
	}
	if err := RowResidualsSquaredIntoCtx(ctx, make([]float64, 10), v, NewMatrix(10, 0), NewMatrix(0, 6), 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("residual empty inner dimension: %v", err)
	}
	if err := RowResidualsSquaredIntoCtx(ctx, make([]float64, 10), NewMatrix(10, 7), w, h, 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("residual wrong v: %v", err)
	}
	if err := RowResidualsSquaredIntoCtx(ctx, make([]float64, 9), v, w, h, 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("residual wrong dst: %v", err)
	}
}

// A cancelled context stops both kernels before the first strip, on the
// serial path and in the pool.
func TestProductKernelsPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	v := nonNegativeMat[float64](rng, 100, 64, 10)
	w := nonNegativeMat[float64](rng, 100, 5, 2)
	h := nonNegativeMat[float64](rng, 5, 64, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if err := CrossDotIntoCtx(ctx, NewMatrix(100, 5), v, h, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers %d: CrossDotIntoCtx = %v, want context.Canceled", workers, err)
		}
		if err := RowResidualsSquaredIntoCtx(ctx, make([]float64, 100), v, w, h, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers %d: RowResidualsSquaredIntoCtx = %v, want context.Canceled", workers, err)
		}
	}
}

// The warmed serial kernels run once per NMF iteration (and, on the fused
// pass, once per strip) on reused scratch and must not allocate — at either
// element type, through the assembly residual kernel or the portable loop.
func TestProductKernelsZeroAllocWarmed(t *testing.T) {
	onEachPrecision(t, testProductKernelsZeroAlloc[float64], testProductKernelsZeroAlloc[float32])
}

func testProductKernelsZeroAlloc[F Float](t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	// 301 columns: whole vectors for the residual kernel plus a portable tail.
	v := nonNegativeMat[F](rng, 100, 301, 10)
	w := nonNegativeMat[F](rng, 100, 5, 2)
	h := nonNegativeMat[F](rng, 5, 301, 2)
	dot := NewMat[F](100, 5)
	res := make([]float64, 100)
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(10, func() {
		if err := CrossDotIntoCtx(ctx, dot, v, h, 1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("CrossDotIntoCtx allocates %v per warmed serial call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := RowResidualsSquaredIntoCtx(ctx, res, v, w, h, 1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("RowResidualsSquaredIntoCtx allocates %v per warmed serial call, want 0", allocs)
	}
}
