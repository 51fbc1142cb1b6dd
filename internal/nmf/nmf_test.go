package nmf

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/testutil"
)

// factorize runs the factorisation on loose rows with no cancellation,
// through the slice adapter.
func factorize(rows []linalg.Vector, opts Options) (*Result, error) {
	return FactorizeContext(context.Background(), rows, opts)
}

// syntheticMix builds rows that are non-negative mixtures of `rank` known
// non-negative basis patterns.
func syntheticMix(rng *rand.Rand, nRows, nCols, rank int) ([]linalg.Vector, []linalg.Vector) {
	basis := make([]linalg.Vector, rank)
	for k := range basis {
		b := make(linalg.Vector, nCols)
		for j := range b {
			// Shifted bumps keep the bases distinct.
			b[j] = math.Abs(math.Sin(float64(j+1)*float64(k+1)/7)) + 0.05
		}
		basis[k] = b
	}
	rows := make([]linalg.Vector, nRows)
	for i := range rows {
		row := make(linalg.Vector, nCols)
		for k := range basis {
			w := rng.Float64()
			for j := range row {
				row[j] += w * basis[k][j]
			}
		}
		rows[i] = row
	}
	return rows, basis
}

func TestFactorizeErrors(t *testing.T) {
	if _, err := factorize(nil, Options{Rank: 2}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty rows: %v", err)
	}
	if _, err := factorize([]linalg.Vector{{}}, Options{Rank: 1}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty columns: %v", err)
	}
	rows := []linalg.Vector{{1, 2}, {3, 4}}
	if _, err := factorize(rows, Options{Rank: 0}); !errors.Is(err, ErrBadRank) {
		t.Errorf("rank 0: %v", err)
	}
	if _, err := factorize(rows, Options{Rank: 5}); !errors.Is(err, ErrBadRank) {
		t.Errorf("rank too large: %v", err)
	}
	if _, err := factorize([]linalg.Vector{{1, -2}, {3, 4}}, Options{Rank: 1}); !errors.Is(err, ErrNegative) {
		t.Errorf("negative value: %v", err)
	}
	if _, err := factorize([]linalg.Vector{{1, math.NaN()}, {3, 4}}, Options{Rank: 1}); !errors.Is(err, ErrNegative) {
		t.Errorf("NaN value: %v", err)
	}
	if _, err := factorize([]linalg.Vector{{1, 2}, {3}}, Options{Rank: 1}); err == nil {
		t.Error("ragged rows should fail")
	}
}

func TestFactorizeRankOneExact(t *testing.T) {
	// A rank-1 matrix factorises with negligible error.
	u := linalg.Vector{1, 2, 3, 4}
	vvec := linalg.Vector{2, 1, 0.5}
	rows := make([]linalg.Vector, len(u))
	for i := range rows {
		row := make(linalg.Vector, len(vvec))
		for j := range row {
			row[j] = u[i] * vvec[j]
		}
		rows[i] = row
	}
	res, err := factorize(rows, Options{Rank: 1, Seed: 3, MaxIterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelativeError > 1e-3 {
		t.Errorf("rank-1 relative error = %g, want ~0", res.RelativeError)
	}
	rec, err := res.Reconstruct(2)
	if err != nil {
		t.Fatal(err)
	}
	for j := range rec {
		if math.Abs(rec[j]-rows[2][j]) > 0.05*rows[2][j]+1e-6 {
			t.Errorf("reconstruct[2][%d] = %g, want %g", j, rec[j], rows[2][j])
		}
	}
}

// Converged separates "stopped because the improvement fell below the
// tolerance" from "stopped at MaxIterations", including the case that
// Iterations cannot: convergence on the last permitted iteration.
func TestFactorizeReportsConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rows, _ := syntheticMix(rng, 40, 60, 3)
	free, err := factorize(rows, Options{Rank: 3, Seed: 1, MaxIterations: 5000, Tolerance: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	n := free.Iterations
	if !free.Converged || n >= 5000 || n < 2 {
		t.Fatalf("uncapped run: converged=%v after %d iterations", free.Converged, n)
	}
	for _, tc := range []struct {
		max       int
		converged bool
	}{{n, true}, {n - 1, false}} {
		res, err := factorize(rows, Options{Rank: 3, Seed: 1, MaxIterations: tc.max, Tolerance: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != tc.max || res.Converged != tc.converged {
			t.Errorf("MaxIterations %d: %d iterations, converged=%v; want %d, %v", tc.max, res.Iterations, res.Converged, tc.max, tc.converged)
		}
	}
}

func TestFactorizeRecoversLowRankStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rows, _ := syntheticMix(rng, 40, 60, 3)
	res, err := factorize(rows, Options{Rank: 3, Seed: 1, MaxIterations: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelativeError > 0.05 {
		t.Errorf("rank-3 relative error = %g, want < 0.05", res.RelativeError)
	}
	// Higher rank never fits worse (up to optimisation noise).
	res5, err := factorize(rows, Options{Rank: 5, Seed: 1, MaxIterations: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res5.RelativeError > res.RelativeError*1.5+0.01 {
		t.Errorf("rank-5 error (%g) should not be much worse than rank-3 (%g)", res5.RelativeError, res.RelativeError)
	}
	// Factors stay non-negative.
	for _, x := range res.W.Data {
		if x < 0 {
			t.Fatal("negative entry in W")
		}
	}
	for _, x := range res.H.Data {
		if x < 0 {
			t.Fatal("negative entry in H")
		}
	}
}

func TestResultAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	rows, _ := syntheticMix(rng, 10, 20, 2)
	res, err := factorize(rows, Options{Rank: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.Weights(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Sum()-1) > 1e-9 {
		t.Errorf("weights sum to %g, want 1", w.Sum())
	}
	if _, err := res.Weights(-1); err == nil {
		t.Error("negative row should fail")
	}
	if _, err := res.Reconstruct(100); err == nil {
		t.Error("out-of-range reconstruct should fail")
	}
	basis, err := res.BasisPattern(1)
	if err != nil || len(basis) != 20 {
		t.Errorf("BasisPattern: %v (len %d)", err, len(basis))
	}
	if _, err := res.BasisPattern(7); err == nil {
		t.Error("out-of-range basis should fail")
	}
	dom := res.DominantBasis()
	if len(dom) != 10 {
		t.Fatalf("DominantBasis length %d", len(dom))
	}
	for _, d := range dom {
		if d < 0 || d >= 2 {
			t.Errorf("dominant basis %d out of range", d)
		}
	}
}

func TestFactorizeDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	rows, _ := syntheticMix(rng, 12, 18, 2)
	a, err := factorize(rows, Options{Rank: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := factorize(rows, Options{Rank: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.W.Data {
		if a.W.Data[i] != b.W.Data[i] {
			t.Fatal("same seed should give identical factors")
		}
	}
}

// Property: the factorisation error never exceeds the norm of the input
// (W=H=0 would achieve that), and both factors stay non-negative.
func TestFactorizeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	f := func(seed uint8) bool {
		n := int(seed%6) + 3
		m := int(seed%5) + 4
		rows := make([]linalg.Vector, n)
		var norm float64
		for i := range rows {
			row := make(linalg.Vector, m)
			for j := range row {
				row[j] = rng.Float64() * 10
				norm += row[j] * row[j]
			}
			rows[i] = row
		}
		res, err := factorize(rows, Options{Rank: 2, Seed: int64(seed), MaxIterations: 50})
		if err != nil {
			return false
		}
		if res.FrobeniusError > math.Sqrt(norm)+1e-6 {
			return false
		}
		for _, x := range res.W.Data {
			if x < 0 || math.IsNaN(x) {
				return false
			}
		}
		for _, x := range res.H.Data {
			if x < 0 || math.IsNaN(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the factorisation is bit-identical for any Workers value, at
// both precisions — the serial path (Workers=1) is the oracle for the
// parallel multiplicative updates. The matrix spans several row strips on
// both of its axes so the strip pools actually engage.
func TestFactorizeParallelMatchesSerial(t *testing.T) {
	t.Run("float64", testFactorizeParallelMatchesSerial[float64])
	t.Run("float32", testFactorizeParallelMatchesSerial[float32])
}

func testFactorizeParallelMatchesSerial[F linalg.Float](t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(76))
	rows, _ := syntheticMix(rng, 120, 90, 4)
	v := matOf[F](rows)
	serial, err := FactorizeMatContext(ctx, v, Options{Rank: 5, Seed: 9, MaxIterations: 40, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		par, err := FactorizeMatContext(ctx, v, Options{Rank: 5, Seed: 9, MaxIterations: 40, Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if par.Iterations != serial.Iterations {
			t.Errorf("workers %d: %d iterations, serial did %d", workers, par.Iterations, serial.Iterations)
		}
		if par.FrobeniusError != serial.FrobeniusError || par.RelativeError != serial.RelativeError {
			t.Errorf("workers %d: error %g/%g, serial %g/%g", workers,
				par.FrobeniusError, par.RelativeError, serial.FrobeniusError, serial.RelativeError)
		}
		for i := range serial.W.Data {
			if par.W.Data[i] != serial.W.Data[i] {
				t.Fatalf("workers %d: W[%d] = %g, serial %g (must be bit-identical)",
					workers, i, par.W.Data[i], serial.W.Data[i])
			}
		}
		for i := range serial.H.Data {
			if par.H.Data[i] != serial.H.Data[i] {
				t.Fatalf("workers %d: H[%d] = %g, serial %g (must be bit-identical)",
					workers, i, par.H.Data[i], serial.H.Data[i])
			}
		}
	}
}

func BenchmarkFactorize100x144Rank5(b *testing.B) {
	rng := rand.New(rand.NewSource(75))
	rows, _ := syntheticMix(rng, 100, 144, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := factorize(rows, Options{Rank: 5, Seed: int64(i), MaxIterations: 60}); err != nil {
			b.Fatal(err)
		}
	}
}
