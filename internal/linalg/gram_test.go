package linalg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleDot is the per-pair reference the blocked kernels are validated
// against: a plain ascending-k accumulation, the exact order the micro-
// kernels promise per entry.
func oracleDot(a, b Vector) float64 {
	var s float64
	for k := range a {
		s += a[k] * b[k]
	}
	return s
}

func oracleSquared(a, b Vector) float64 {
	sq, _ := SquaredDistance(a, b)
	return sq
}

// relDiff is the Gram-trick tolerance model: absolute error measured
// against the scale of the squared norms, since the trick cancels two
// norm-sized terms.
func relDiff(got, want, scale float64) float64 {
	return math.Abs(got-want) / (1 + scale)
}

// gramShapes exercises every kernel edge: empty columns, single rows, the
// scalar tails on both axes, exact tile multiples and interiors.
var gramShapes = [][2]int{
	{1, 1}, {1, 7}, {2, 3}, {3, 0}, {4, 4}, {5, 9}, {7, 16},
	{31, 5}, {32, 8}, {33, 12}, {64, 33}, {97, 21}, {130, 3},
}

// onKernelPaths runs fn under the active kernel path and, when the
// assembly path is active, once more on the portable Go path, so both
// implementations stay covered by every property test.
func onKernelPaths(t *testing.T, fn func(t *testing.T)) {
	t.Run("active", fn)
	if useAsm {
		useAsm = false
		defer func() { useAsm = true }()
		t.Run("generic", fn)
	}
}

func TestGramIntoMatchesOracle(t *testing.T) { onKernelPaths(t, testGramIntoMatchesOracle) }

func testGramIntoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, s := range gramShapes {
		n, d := s[0], s[1]
		x := randomMatrix(rng, n, d)
		dst := randomMatrix(rng, n, n) // pre-soiled: the kernel must overwrite
		if err := x.GramInto(dst, 1); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := oracleDot(x.Row(i), x.Row(j))
				if got := dst.At(i, j); relDiff(got, want, math.Abs(want)) > 1e-12 {
					t.Fatalf("shape %v: gram[%d][%d] = %g, oracle %g", s, i, j, got, want)
				}
				if dst.At(i, j) != dst.At(j, i) {
					t.Fatalf("shape %v: gram not exactly symmetric at (%d,%d)", s, i, j)
				}
			}
		}
	}
}

func TestPairwiseSquaredIntoMatchesOracle(t *testing.T) {
	onKernelPaths(t, testPairwiseSquaredIntoMatchesOracle)
}

func testPairwiseSquaredIntoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, s := range gramShapes {
		n, d := s[0], s[1]
		x := randomMatrix(rng, n, d)
		dst := randomMatrix(rng, n, n)
		norms := make(Vector, n)
		if err := PairwiseSquaredIntoCtx(context.Background(), dst, x, norms, 1); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		scale := 0.0
		for _, nn := range norms {
			scale = math.Max(scale, nn)
		}
		for i := 0; i < n; i++ {
			if dst.At(i, i) != 0 {
				t.Fatalf("shape %v: diagonal[%d] = %g, want exactly 0", s, i, dst.At(i, i))
			}
			for j := 0; j < n; j++ {
				want := oracleSquared(x.Row(i), x.Row(j))
				if got := dst.At(i, j); relDiff(got, want, scale) > 1e-9 {
					t.Fatalf("shape %v: d²[%d][%d] = %g, oracle %g", s, i, j, got, want)
				}
				if dst.At(i, j) < 0 {
					t.Fatalf("shape %v: negative squared distance at (%d,%d)", s, i, j)
				}
			}
		}
	}
}

func TestPairwiseSquaredCondensedMatchesOracle(t *testing.T) {
	onKernelPaths(t, testPairwiseSquaredCondensedMatchesOracle)
}

func testPairwiseSquaredCondensedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, s := range gramShapes {
		n, d := s[0], s[1]
		if n < 2 {
			continue
		}
		x := randomMatrix(rng, n, d)
		dst := make([]float64, n*(n-1)/2)
		norms := make(Vector, n)
		if err := PairwiseSquaredCondensedCtx(context.Background(), dst, x, norms, 1); err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		scale := 0.0
		for _, nn := range norms {
			scale = math.Max(scale, nn)
		}
		idx := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := oracleSquared(x.Row(i), x.Row(j))
				if got := dst[idx]; relDiff(got, want, scale) > 1e-9 {
					t.Fatalf("shape %v: condensed d²(%d,%d) = %g, oracle %g", s, i, j, got, want)
				}
				idx++
			}
		}
	}
}

// Identical rows must produce an exactly-zero Gram-trick distance: the norm
// and the cross dot product run the same operation sequence, so the
// cancellation is exact, which DaviesBouldin's coincident-centroid handling
// relies on.
func TestPairwiseSquaredIdenticalRowsExactZero(t *testing.T) {
	onKernelPaths(t, testPairwiseSquaredIdenticalRowsExactZero)
}

func testPairwiseSquaredIdenticalRowsExactZero(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	x := NewMatrix(37, 501)
	row := make(Vector, 501)
	for i := range row {
		row[i] = rng.NormFloat64() * 1e3
	}
	for i := 0; i < x.Rows; i++ {
		copy(x.Row(i), row)
	}
	dst := NewMatrix(x.Rows, x.Rows)
	if err := PairwiseSquaredIntoCtx(context.Background(), dst, x, nil, 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range dst.Data {
		if v != 0 {
			t.Fatalf("identical rows produced nonzero squared distance %g", v)
		}
	}
}

// Property: every blocked kernel is bit-identical for any worker count —
// each output entry is computed by exactly one worker in a fixed order.
func TestBlockedKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	onKernelPaths(t, testBlockedKernelsBitIdenticalAcrossWorkers)
}

func testBlockedKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	x := randomMatrix(rng, 131, 57)

	gramBase := NewMatrix(x.Rows, x.Rows)
	pairBase := NewMatrix(x.Rows, x.Rows)
	condBase := make([]float64, x.Rows*(x.Rows-1)/2)
	if err := x.GramInto(gramBase, 1); err != nil {
		t.Fatal(err)
	}
	if err := PairwiseSquaredIntoCtx(context.Background(), pairBase, x, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := PairwiseSquaredCondensedCtx(context.Background(), condBase, x, nil, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts() {
		gram := randomMatrix(rng, x.Rows, x.Rows)
		pair := randomMatrix(rng, x.Rows, x.Rows)
		cond := make([]float64, len(condBase))
		if err := x.GramInto(gram, workers); err != nil {
			t.Fatal(err)
		}
		if err := PairwiseSquaredIntoCtx(context.Background(), pair, x, nil, workers); err != nil {
			t.Fatal(err)
		}
		if err := PairwiseSquaredCondensedCtx(context.Background(), cond, x, nil, workers); err != nil {
			t.Fatal(err)
		}
		for i := range gramBase.Data {
			if gram.Data[i] != gramBase.Data[i] {
				t.Fatalf("workers %d: GramInto element %d differs from serial", workers, i)
			}
			if pair.Data[i] != pairBase.Data[i] {
				t.Fatalf("workers %d: PairwiseSquaredInto element %d differs from serial", workers, i)
			}
		}
		for i := range condBase {
			if cond[i] != condBase[i] {
				t.Fatalf("workers %d: condensed element %d differs from serial", workers, i)
			}
		}
	}
}

// The assembly and portable kernels use different accumulation orders, so
// they are not bit-identical — but they must agree to FP-reassociation
// precision on the same input.
func TestAsmAndGenericKernelsAgree(t *testing.T) {
	if !useAsm {
		t.Skip("assembly path not active on this machine")
	}
	rng := rand.New(rand.NewSource(109))
	for _, s := range gramShapes {
		n, d := s[0], s[1]
		x := randomMatrix(rng, n, d)
		asmDst := NewMatrix(n, n)
		genDst := NewMatrix(n, n)
		if err := PairwiseSquaredIntoCtx(context.Background(), asmDst, x, nil, 1); err != nil {
			t.Fatal(err)
		}
		useAsm = false
		err := PairwiseSquaredIntoCtx(context.Background(), genDst, x, nil, 1)
		useAsm = true
		if err != nil {
			t.Fatal(err)
		}
		for i := range asmDst.Data {
			if relDiff(asmDst.Data[i], genDst.Data[i], math.Abs(genDst.Data[i])+float64(d)) > 1e-9 {
				t.Fatalf("shape %v: asm %g vs generic %g at %d", s, asmDst.Data[i], genDst.Data[i], i)
			}
		}
	}
}

func TestBlockedKernelDimensionErrors(t *testing.T) {
	x := NewMatrix(10, 4)
	if err := x.GramInto(NewMatrix(9, 10), 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("gram wrong dst: %v", err)
	}
	if err := PairwiseSquaredIntoCtx(context.Background(), NewMatrix(10, 9), x, nil, 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("pairwise wrong dst: %v", err)
	}
	if err := PairwiseSquaredCondensedCtx(context.Background(), make([]float64, 44), x, nil, 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("condensed wrong buffer: %v", err)
	}
	if err := RowNormsSquaredInto(make(Vector, 9), x); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("norms wrong length: %v", err)
	}
}

// The warmed serial kernels must not allocate: they are the inner loop of
// the clustering engine, called with reused scratch.
func TestBlockedKernelsZeroAllocWarmed(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	x := randomMatrix(rng, 100, 64)
	cond := make([]float64, x.Rows*(x.Rows-1)/2)
	norms := make(Vector, x.Rows)
	if err := RowNormsSquaredInto(norms, x); err != nil {
		t.Fatal(err)
	}
	full := NewMatrix(x.Rows, x.Rows)

	if n := testing.AllocsPerRun(10, func() {
		if err := PairwiseSquaredCondensedCtx(context.Background(), cond, x, norms, 1); err != nil {
			t.Fatal(err)
		}
		if err := SquaredDistancesSqrtInPlaceCtx(context.Background(), cond, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("condensed kernel: %v allocs/op warmed, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := PairwiseSquaredIntoCtx(context.Background(), full, x, norms, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("full pairwise kernel: %v allocs/op warmed, want 0", n)
	}
}

func TestRowsMatrixAliasesContiguousRows(t *testing.T) {
	m := NewMatrix(6, 5)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	views := m.RowViews()
	got, err := RowsMatrix(views)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 6 || got.Cols != 5 {
		t.Fatalf("aliased shape %dx%d", got.Rows, got.Cols)
	}
	got.Data[0] = -1
	if m.Data[0] != -1 {
		t.Error("RowsMatrix of row views should alias, not copy")
	}

	// A subset of views in order is still contiguous only when adjacent.
	sub, err := RowsMatrix(views[2:5])
	if err != nil {
		t.Fatal(err)
	}
	sub.Data[0] = -2
	if m.At(2, 0) != -2 {
		t.Error("adjacent row views should alias")
	}

	// Separately allocated rows must be packed, not aliased.
	loose := []Vector{{1, 2}, {3, 4}}
	packed, err := RowsMatrix(loose)
	if err != nil {
		t.Fatal(err)
	}
	packed.Data[0] = 99
	if loose[0][0] != 1 {
		t.Error("packed matrix must not alias loose rows")
	}

	// Non-adjacent views (every other row) must pack too.
	gappy := []Vector{views[0], views[2]}
	g, err := RowsMatrix(gappy)
	if err != nil {
		t.Fatal(err)
	}
	g.Data[0] = 123
	if m.At(0, 0) == 123 {
		t.Error("non-adjacent views must be packed")
	}

	if _, err := RowsMatrix[float64](nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty rows: %v", err)
	}
	if _, err := RowsMatrix([]Vector{{1, 2}, {1}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged rows: %v", err)
	}
}

func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	for _, n := range []int{1, 2, 3, 10, 101, 1000} {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		// Include duplicates and pre-sorted runs.
		if n > 4 {
			copy(v[n/2:], v[:n/4])
			sort.Float64s(v[:n/3])
		}
		want := append([]float64(nil), v...)
		sort.Float64s(want)
		for _, k := range []int{0, n / 3, n / 2, n - 1} {
			got := SelectKth(append([]float64(nil), v...), k)
			if got != want[k] {
				t.Fatalf("n=%d k=%d: SelectKth = %g, sorted %g", n, k, got, want[k])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range k should panic")
		}
	}()
	SelectKth([]float64{1}, 1)
}
