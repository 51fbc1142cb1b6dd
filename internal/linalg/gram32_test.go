package linalg

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The float32 kernels are validated against the float64 kernels as oracle:
// the float32 inputs are widened exactly (float32 → float64 is lossless),
// the float64 path computes the reference, and the float32 result must
// agree to ≤1e-4 relative error — the accumulated-rounding budget of a
// 1,008-slot dot product at 2^-24 per step, with the Gram trick's
// cancellation measured against the squared-norm scale.

const f32Tol = 1e-4

// randomMatrix32 returns a float32 matrix and its exact float64 widening.
// The scale parameter exercises magnitude regimes (z-scored features sit
// near 1, raw traffic reaches 1e6+).
func randomMatrix32(rng *rand.Rand, rows, cols int, scale float64) (*Matrix32, *Matrix) {
	m32 := NewMatrix32(rows, cols)
	for i := range m32.Data {
		m32.Data[i] = float32((rng.Float64()*2 - 1) * scale)
	}
	return m32, widen32(m32)
}

func widen32(m *Matrix32) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, x := range m.Data {
		out.Data[i] = float64(x)
	}
	return out
}

// onKernelPathsF32 runs fn under the active float32 kernel path and, when
// the assembly path is active, once more on the portable Go path.
func onKernelPathsF32(t *testing.T, fn func(t *testing.T)) {
	t.Run("active", fn)
	if useAsmF32 {
		useAsmF32 = false
		defer func() { useAsmF32 = true }()
		t.Run("generic", fn)
	}
}

func TestFloat32PairwiseMatchesFloat64Oracle(t *testing.T) {
	onKernelPathsF32(t, testFloat32PairwiseMatchesFloat64Oracle)
}

func testFloat32PairwiseMatchesFloat64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for _, scale := range []float64{1, 1e6} {
		for _, s := range gramShapes {
			n, d := s[0], s[1]
			x32, x64 := randomMatrix32(rng, n, d, scale)

			dst32 := NewMatrix32(n, n)
			dst64 := NewMatrix(n, n)
			norms := make(Vector, n)
			if err := PairwiseSquaredIntoCtx(context.Background(), dst32, x32, nil, 1); err != nil {
				t.Fatalf("shape %v: %v", s, err)
			}
			if err := PairwiseSquaredIntoCtx(context.Background(), dst64, x64, norms, 1); err != nil {
				t.Fatalf("shape %v: %v", s, err)
			}
			nscale := 0.0
			for _, nn := range norms {
				nscale = math.Max(nscale, nn)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					got, want := float64(dst32.At(i, j)), dst64.At(i, j)
					if relDiff(got, want, nscale) > f32Tol {
						t.Fatalf("shape %v scale %g: f32 d²[%d][%d] = %g, f64 oracle %g", s, scale, i, j, got, want)
					}
				}
			}

			// Condensed layout must agree with the full matrix it linearises.
			if n > 1 {
				cond := make(Vector32, n*(n-1)/2)
				if err := PairwiseSquaredCondensedCtx(context.Background(), cond, x32, nil, 1); err != nil {
					t.Fatalf("shape %v: %v", s, err)
				}
				k := 0
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						if relDiff(float64(cond[k]), dst64.At(i, j), nscale) > f32Tol {
							t.Fatalf("shape %v scale %g: f32 condensed[%d] = %g, f64 oracle %g", s, scale, k, cond[k], dst64.At(i, j))
						}
						k++
					}
				}
			}
		}
	}
}

func TestFloat32CrossMatchesFloat64Oracle(t *testing.T) {
	onKernelPathsF32(t, testFloat32CrossMatchesFloat64Oracle)
}

func testFloat32CrossMatchesFloat64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for _, s := range gramShapes {
		n, d := s[0], s[1]
		m := (s[0]+5)/2 + 1
		x32, x64 := randomMatrix32(rng, n, d, 1)
		y32, y64 := randomMatrix32(rng, m, d, 1)

		dot32 := NewMatrix32(n, m)
		dot64 := NewMatrix(n, m)
		if err := CrossDotIntoCtx(context.Background(), dot32, x32, y32, 1); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		if err := CrossDotIntoCtx(context.Background(), dot64, x64, y64, 1); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		nscale := 0.0
		for i := 0; i < n; i++ {
			nscale = math.Max(nscale, oracleDot(x64.Row(i), x64.Row(i)))
		}
		xn32 := make(Vector32, n)
		yn32 := make(Vector32, m)
		if err := RowNormsSquaredInto(xn32, x32); err != nil {
			t.Fatal(err)
		}
		if err := RowNormsSquaredInto(yn32, y32); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				got, want := float64(dot32.At(i, j)), dot64.At(i, j)
				if relDiff(got, want, nscale) > f32Tol {
					t.Fatalf("shape %v: f32 cross dot[%d][%d] = %g, f64 oracle %g", s, i, j, got, want)
				}
				// The one-pair distance shares the tiles' dot: it is the
				// clamped norms-and-dot sum of this entry, bit for bit.
				sq := xn32[i] + yn32[j] - 2*dot32.At(i, j)
				if sq < 0 {
					sq = 0
				}
				one, err := AssignedSquaredDistance(x32, y32, xn32, yn32, i, j)
				if err != nil {
					t.Fatal(err)
				}
				if one != float64(sq) {
					t.Fatalf("shape %v: assigned(%d,%d) = %g, from the cross dot %g", s, i, j, one, sq)
				}
			}
		}
	}
}

func TestFloat32GramAndDotMatchOracle(t *testing.T) {
	onKernelPathsF32(t, testFloat32GramAndDotMatchOracle)
}

func testFloat32GramAndDotMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for _, s := range gramShapes {
		n, d := s[0], s[1]
		x32, x64 := randomMatrix32(rng, n, d, 1)

		g32 := NewMatrix32(n, n)
		if err := x32.GramInto(g32, 1); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := oracleDot(x64.Row(i), x64.Row(j))
				if got := float64(g32.At(i, j)); relDiff(got, want, math.Abs(want)) > f32Tol {
					t.Fatalf("shape %v: f32 gram[%d][%d] = %g, oracle %g", s, i, j, got, want)
				}
			}
		}

	}
}

func TestFloat32MulMatchesFloat64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	for _, s := range [][3]int{{1, 1, 1}, {3, 4, 5}, {16, 17, 18}, {33, 40, 29}, {64, 64, 64}} {
		n, k, m := s[0], s[1], s[2]
		a32, a64 := randomMatrix32(rng, n, k, 1)
		b32, b64 := randomMatrix32(rng, k, m, 1)

		want := NewMatrix(n, m)
		if err := a64.MulInto(want, b64); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		serial := NewMatrix32(n, m)
		if err := a32.MulInto(serial, b32); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		par := NewMatrix32(n, m)
		if err := parallelMulInto(a32, par, b32, 4); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		for i := range want.Data {
			if relDiff(float64(serial.Data[i]), want.Data[i], float64(k)) > f32Tol {
				t.Fatalf("shape %v: f32 mul[%d] = %g, f64 oracle %g", s, i, serial.Data[i], want.Data[i])
			}
			if par.Data[i] != serial.Data[i] {
				t.Fatalf("shape %v: parallel mul differs from serial at %d", s, i)
			}
		}

		tr := NewMatrix32(k, n)
		if err := parallelTransposeInto(a32, tr, 4); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				if tr.At(j, i) != a32.At(i, j) {
					t.Fatalf("shape %v: transpose mismatch at (%d,%d)", s, i, j)
				}
			}
		}
	}
}

// TestFloat32CoincidentRowsExactZero is the adversarial exact-zero
// property: bit-identical rows must produce exactly-zero distances in
// every float32 kernel, on both the assembly and portable paths, because
// norms and cross dots share one accumulation scheme.
func TestFloat32CoincidentRowsExactZero(t *testing.T) {
	onKernelPathsF32(t, testFloat32CoincidentRowsExactZero)
}

func testFloat32CoincidentRowsExactZero(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	for _, s := range gramShapes {
		n, d := s[0], s[1]
		if n < 2 {
			continue
		}
		x32, _ := randomMatrix32(rng, n, d, 1e3)
		// Duplicate rows across tile boundaries: every row j copies row j%2.
		for j := 2; j < n; j++ {
			copy(x32.Row(j), x32.Row(j%2))
		}

		dst := NewMatrix32(n, n)
		if err := PairwiseSquaredIntoCtx(context.Background(), dst, x32, nil, 1); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		cond := make(Vector32, n*(n-1)/2)
		if err := PairwiseSquaredCondensedCtx(context.Background(), cond, x32, nil, 1); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				same := i%2 == j%2 || d == 0
				if same && dst.At(i, j) != 0 {
					t.Fatalf("shape %v: full d²[%d][%d] = %g, want exact 0 for coincident rows", s, i, j, dst.At(i, j))
				}
				if same && cond[k] != 0 {
					t.Fatalf("shape %v: condensed d²[%d][%d] = %g, want exact 0 for coincident rows", s, i, j, cond[k])
				}
				k++
			}
		}

		// Cross dots against copies of rows: each equals the row's squared
		// norm exactly, the same accumulation as RowNormsSquaredInto.
		y32 := NewMatrix32(2, d)
		copy(y32.Row(0), x32.Row(0))
		copy(y32.Row(1), x32.Row(1))
		cross := NewMatrix32(n, 2)
		if err := CrossDotIntoCtx(context.Background(), cross, x32, y32, 1); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		norms := make(Vector32, n)
		if err := RowNormsSquaredInto(norms, x32); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if got := cross.At(i, i%2); got != norms[i] {
				t.Fatalf("shape %v: cross dot[%d][%d] = %g, want the squared norm %g exactly", s, i, i%2, got, norms[i])
			}
		}
	}
}

// TestFloat32KernelsBitIdenticalAcrossWorkers is the determinism sweep of
// the float32 path: every blocked kernel must produce byte-identical
// output for Workers ∈ {1, 2, 4, GOMAXPROCS}.
func TestFloat32KernelsBitIdenticalAcrossWorkers(t *testing.T) {
	onKernelPathsF32(t, testFloat32KernelsBitIdenticalAcrossWorkers)
}

func testFloat32KernelsBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	const n, d, m = 97, 129, 7
	x32, _ := randomMatrix32(rng, n, d, 1)
	a32, _ := randomMatrix32(rng, n, d, 1)
	b32, _ := randomMatrix32(rng, d, m, 1)

	type snapshot struct {
		full, mul *Matrix32
		cond      Vector32
	}
	run := func(workers int) snapshot {
		var s snapshot
		s.full = NewMatrix32(n, n)
		if err := PairwiseSquaredIntoCtx(context.Background(), s.full, x32, nil, workers); err != nil {
			t.Fatal(err)
		}
		s.cond = make(Vector32, n*(n-1)/2)
		if err := PairwiseSquaredCondensedCtx(context.Background(), s.cond, x32, nil, workers); err != nil {
			t.Fatal(err)
		}
		s.mul = NewMatrix32(n, m)
		if err := parallelMulInto(a32, s.mul, b32, workers); err != nil {
			t.Fatal(err)
		}
		return s
	}

	base := run(1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		for i := range base.full.Data {
			if got.full.Data[i] != base.full.Data[i] {
				t.Fatalf("workers=%d: full pairwise differs at %d", workers, i)
			}
		}
		for i := range base.cond {
			if got.cond[i] != base.cond[i] {
				t.Fatalf("workers=%d: condensed differs at %d", workers, i)
			}
		}
		for i := range base.mul.Data {
			if got.mul.Data[i] != base.mul.Data[i] {
				t.Fatalf("workers=%d: parallel mul differs at %d", workers, i)
			}
		}
	}
}

// TestFloat32ZScoreAndAxpy covers the remaining generic primitives the
// float32 pipeline path leans on.
func TestFloat32ZScoreAndAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	n := 1008
	v32 := make(Vector32, n)
	v64 := make(Vector, n)
	for i := range v32 {
		x := rng.Float64() * 1e5
		v32[i] = float32(x)
		v64[i] = float64(v32[i])
	}
	z32 := make(Vector32, n)
	z64 := make(Vector, n)
	if err := ZScoreNormalizeInto(z32, v32); err != nil {
		t.Fatal(err)
	}
	if err := ZScoreNormalizeInto(z64, v64); err != nil {
		t.Fatal(err)
	}
	for i := range z32 {
		if relDiff(float64(z32[i]), z64[i], 1) > f32Tol {
			t.Fatalf("z-score[%d] = %g, f64 oracle %g", i, z32[i], z64[i])
		}
	}

	// Constant rows normalise to exactly zero in both precisions.
	c32 := Vector32{3, 3, 3, 3}
	zc := make(Vector32, 4)
	if err := ZScoreNormalizeInto(zc, c32); err != nil {
		t.Fatal(err)
	}
	for i, x := range zc {
		if x != 0 {
			t.Fatalf("constant-row z-score[%d] = %g, want 0", i, x)
		}
	}

	// y ← y + a·x from the in-place primitives.
	y32, ax := z32.Clone(), v32.Clone()
	ax.ScaleInPlace(0.5)
	if err := y32.AddInPlace(ax); err != nil {
		t.Fatal(err)
	}
	for i := range y32 {
		want := z32[i] + 0.5*v32[i]
		if y32[i] != want {
			t.Fatalf("axpy[%d] = %g, want %g", i, y32[i], want)
		}
	}
	if err := make(Vector32, 1).AddInPlace(v32); err == nil {
		t.Fatal("axpy with mismatched lengths must fail")
	}
}
