package dsp

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/testutil"
)

// testLengths exercises every code path of the engine: the unit transform,
// pure radix-2/4 powers of two, generic odd radices, the paper's composite
// 4032 = 2⁶·3²·7, and primes ≥ 31 that go through Bluestein.
var testLengths = []int{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 21, 25, 27, 29,
	31, 37, 48, 63, 97, 101, 105, 128, 144, 243, 252, 256,
	441, 1009, 4032,
}

func randomReal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	var worst float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestPlanMatchesDirectDFT pits the plan's forward transform against the
// O(N²) oracle on every test length. The acceptance tolerance is 1e-9
// maximum absolute error on unit-scale inputs.
func TestPlanMatchesDirectDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range testLengths {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randomReal(rng, n)
		c := make([]complex128, n)
		for i, v := range x {
			c[i] = complex(v, 0)
		}
		ref := directDFT(c)

		got := make([]complex128, n)
		if err := p.Transform(got, x); err != nil {
			t.Fatalf("n=%d Transform: %v", n, err)
		}
		if d := maxAbsDiff(got, ref); d > 1e-9 {
			t.Errorf("n=%d real transform: max abs error %g vs directDFT", n, d)
		}

	}
}

// TestPlanRoundTripAndParseval checks the Transform→InverseReal round trip
// plus Parseval's identity on every test length.
func TestPlanRoundTripAndParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range testLengths {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randomReal(rng, n)
		spec := make([]complex128, n)
		if err := p.Transform(spec, x); err != nil {
			t.Fatal(err)
		}
		if te, se := Energy(x), spectralEnergy(spec); math.Abs(te-se) > 1e-9*(te+1) {
			t.Errorf("n=%d Parseval violated: time %g vs spectral %g", n, te, se)
		}
		back := make([]float64, n)
		if err := p.InverseReal(back, spec); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d real round trip[%d] = %g, want %g", n, i, back[i], x[i])
			}
		}

	}
}

// TestPlanReconstructMatchesWrapper checks that a plan borrowed from the
// package-level pool — recycled scratch and mask included — reconstructs
// exactly what a fresh plan does on the paper length.
func TestPlanReconstructMatchesWrapper(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randomReal(rng, 4032)
	p, err := NewPlan(len(x))
	if err != nil {
		t.Fatal(err)
	}
	got, gotLoss, err := p.Reconstruct(x, BinWeekly, BinDaily, BinHalfDay)
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	var wantLoss float64
	for round := 0; round < 2; round++ { // the second round reuses the released plan
		pooled, err := AcquirePlan(len(x))
		if err != nil {
			t.Fatal(err)
		}
		want, wantLoss, err = pooled.Reconstruct(x, BinWeekly, BinDaily, BinHalfDay)
		pooled.Release()
		if err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(gotLoss-wantLoss) > 1e-12 {
		t.Errorf("energy loss: plan %g vs pooled plan %g", gotLoss, wantLoss)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("reconstruct[%d]: plan %g vs pooled plan %g", i, got[i], want[i])
		}
	}
	if err := p.ReconstructInto(make([]float64, p.N()), x, p.N()); err == nil {
		t.Error("out-of-range component should fail")
	}
}

// TestPlanZeroAllocs verifies the acceptance criterion that a warmed plan
// performs zero allocations per transform.
func TestPlanZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{144, 1009, 4032} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randomReal(rng, n)
		spec := make([]complex128, n)
		back := make([]float64, n)
		if err := p.Transform(spec, x); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if err := p.Transform(spec, x); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("n=%d Transform allocates %.1f times per run, want 0", n, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if err := p.InverseReal(back, spec); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("n=%d InverseReal allocates %.1f times per run, want 0", n, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if err := p.ReconstructInto(back, x, 4, 28); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("n=%d ReconstructInto allocates %.1f times per run, want 0", n, allocs)
		}
	}
}

// TestPlanCloneConcurrent runs clones of one plan from many goroutines and
// checks every result against the parent's.
func TestPlanCloneConcurrent(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	rng := rand.New(rand.NewSource(17))
	const n = 252
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	x := randomReal(rng, n)
	want := make([]complex128, n)
	if err := p.Transform(want, x); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	diffs := make([]float64, 8)
	for w := 0; w < 8; w++ {
		clone := p.Clone()
		wg.Add(1)
		go func(w int, clone *Plan) {
			defer wg.Done()
			got := make([]complex128, n)
			for iter := 0; iter < 50; iter++ {
				if err := clone.Transform(got, x); err != nil {
					errs[w] = err
					return
				}
				if d := maxAbsDiff(got, want); d > diffs[w] {
					diffs[w] = d
				}
			}
		}(w, clone)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if diffs[w] != 0 {
			t.Errorf("worker %d: clone diverged from parent by %g", w, diffs[w])
		}
	}
}

// batchSpectra collects the spectrum of every signal from
// p.BatchTransformContext.
func batchSpectra(p *Plan, signals [][]float64) ([][]complex128, error) {
	out := make([][]complex128, len(signals))
	err := p.BatchTransformContext(context.Background(), signals, func(row int, spectrum []complex128) error {
		out[row] = append([]complex128(nil), spectrum...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TestBatchSpectraMatchesSequential checks the batch fan-out against
// per-signal transforms, plus error propagation for ragged inputs.
func TestBatchSpectraMatchesSequential(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	rng := rand.New(rand.NewSource(19))
	const n, rows = 144, 37
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	signals := make([][]float64, rows)
	for i := range signals {
		signals[i] = randomReal(rng, n)
	}
	batch, err := batchSpectra(p, signals)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range signals {
		want, err := dft(x)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(batch[i], want); d > 1e-12 {
			t.Errorf("row %d: batch spectrum differs from the one-shot transform by %g", i, d)
		}
	}
	if _, err := batchSpectra(p, [][]float64{make([]float64, n), make([]float64, n-1)}); err == nil {
		t.Error("ragged batch should fail")
	}
	if out, err := batchSpectra(p, nil); err != nil || len(out) != 0 {
		t.Errorf("empty batch: got %v, %v", out, err)
	}
}

// A batch under a cancelled context transforms nothing and reports the
// cancellation; cancelled mid-batch, it stops delivering rows.
func TestBatchTransformCancel(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	const n, rows = 48, 64
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	signals := make([][]float64, rows)
	for i := range signals {
		signals[i] = randomReal(rand.New(rand.NewSource(int64(i))), n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var delivered atomic.Int64
	count := func(int, []complex128) error { delivered.Add(1); return nil }
	if err := p.BatchTransformContext(ctx, signals, count); !errors.Is(err, context.Canceled) || delivered.Load() != 0 {
		t.Errorf("pre-cancelled: err %v after %d rows, want context.Canceled and none", err, delivered.Load())
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	err = p.BatchTransformContext(ctx, signals, func(row int, _ []complex128) error {
		if delivered.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	// After the cancel each worker finishes at most the row it holds.
	if got := delivered.Load(); !errors.Is(err, context.Canceled) || got >= rows {
		t.Errorf("cancelled mid-batch: err %v after %d of %d rows", err, got, rows)
	}
}

// TestMaskComponentsInPlace checks the in-place masking step: mirrors kept,
// errors leave the buffer untouched, and the scratch mask comes back clear.
func TestMaskComponentsInPlace(t *testing.T) {
	mask := make([]bool, 8)
	spec := []complex128{1, 2, 3, 4, 5, 6, 7, 8}
	if err := applyMask(mask, spec, []int{2}); err != nil {
		t.Fatal(err)
	}
	want := []complex128{1, 0, 3, 0, 0, 0, 7, 0}
	for i := range want {
		if spec[i] != want[i] {
			t.Errorf("masked[%d] = %v, want %v", i, spec[i], want[i])
		}
	}
	orig := []complex128{1, 2, 3, 4}
	if err := applyMask(mask, orig, []int{1, 9}); err == nil {
		t.Fatal("out-of-range component should fail")
	}
	for i, v := range []complex128{1, 2, 3, 4} {
		if orig[i] != v {
			t.Error("failed applyMask modified its input")
		}
	}
	for i, set := range mask {
		if set {
			t.Errorf("mask[%d] left set", i)
		}
	}
}

// TestAcquireRelease checks the package-level pool's lifecycle and error
// paths. (Whether a release is reused is up to sync.Pool — a GC may empty
// it — so reuse itself is not asserted.)
func TestAcquireRelease(t *testing.T) {
	p1, err := AcquirePlan(963)
	if err != nil {
		t.Fatal(err)
	}
	if p1.N() != 963 {
		t.Errorf("acquired plan length %d, want 963", p1.N())
	}
	p1.Release()
	p2, err := AcquirePlan(963)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Release()
	x := randomReal(rand.New(rand.NewSource(23)), 963)
	spec := make([]complex128, 963)
	if err := p2.Transform(spec, x); err != nil {
		t.Fatalf("pooled plan transform: %v", err)
	}
	if _, err := AcquirePlan(0); err == nil {
		t.Error("AcquirePlan(0) should fail")
	}
	if _, err := NewPlan(-3); err == nil {
		t.Error("NewPlan(-3) should fail")
	}
}

// --- Benchmarks -----------------------------------------------------------

func benchPlanFFT(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(3))
	x := randomReal(rng, n)
	p, err := NewPlan(n)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Transform(out, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSP_FFTPowerOfTwo measures the pure radix-4/2 path.
func BenchmarkDSP_FFTPowerOfTwo(b *testing.B) { benchPlanFFT(b, 4096) }

// BenchmarkDSP_FFTPaperLength measures the paper's composite length
// 4032 = 2⁶·3²·7 (mixed radix-4/2/3/7 stages).
func BenchmarkDSP_FFTPaperLength(b *testing.B) { benchPlanFFT(b, 4032) }

// BenchmarkDSP_FFTPrime measures a prime length through Bluestein.
func BenchmarkDSP_FFTPrime(b *testing.B) { benchPlanFFT(b, 4099) }

// BenchmarkDSP_FFTRadix3Heavy measures 3^8 = 6561, a pure chain of the
// specialised radix-3 butterfly (the s==1 form on the first stage).
func BenchmarkDSP_FFTRadix3Heavy(b *testing.B) { benchPlanFFT(b, 6561) }

// BenchmarkDSP_FFTWeekOfHours measures the paper's week-of-hours slot count
// 168 = 4·2·3·7 — the length the modeling pipeline actually transforms —
// whose RFFT half plan 84 = 4·3·7 opens with the unit-stride radix-4 stage
// and runs the radix-3 butterfly on the second.
func BenchmarkDSP_FFTWeekOfHours(b *testing.B) { benchPlanFFT(b, 168) }

// BenchmarkDSP_BatchSpectra measures the worker-pool fan-out over a
// tower-sized batch of paper-length vectors.
func BenchmarkDSP_BatchSpectra(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const rows, n = 256, 4032
	signals := make([][]float64, rows)
	for i := range signals {
		signals[i] = randomReal(rng, n)
	}
	p, err := NewPlan(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := batchSpectra(p, signals); err != nil {
			b.Fatal(err)
		}
	}
}
