package nmf

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	_ "unsafe" // go:linkname, for the kernel gate below

	"repro/internal/linalg"
	"repro/internal/synth"
)

// This file retains the three-pass iteration FactorizeMatContext ran up to
// commit 9e92977 as the oracle of the fused one: V·Hᵀ as one whole-matrix
// CrossDotIntoCtx, then the W update over the whole of W, then one
// whole-matrix RowResidualsSquaredIntoCtx. The fused strip pass does the
// same arithmetic row by row in a different loop nest, so the two must
// agree in every bit, for any worker count.

// factorizeThreePass is FactorizeMatContext as it stood at 9e92977,
// verbatim.
func factorizeThreePass[F linalg.Float](ctx context.Context, v *linalg.Mat[F], opts Options) (*Result, error) {
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
		vht    = linalg.NewMat[F](n, r)
		whht   = linalg.NewMat[F](n, r)
		rowErr = make([]float64, n)
	)
	// The update-rule damping term. 1e-12 is an ordinary normal float32
	// (min normal ≈ 1.2e-38), so the narrowing keeps its value.
	eps := F(epsilon)
	done := ctx.Done()
	prevErr := math.Inf(1)
	iterations := 0
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
		// W ← W ∘ (V Hᵀ) / (W (H Hᵀ)): rows of V against rows of H.
		if err := linalg.CrossDotIntoCtx(ctx, vht, v, h, workers); err != nil {
			return nil, err
		}
		if err := h.GramInto(gram, 1); err != nil {
			return nil, err
		}
		if err := w.MulInto(whht, gram); err != nil {
			return nil, err
		}
		for i := range w.Data {
			w.Data[i] *= vht.Data[i] / (whht.Data[i] + eps)
		}
		// Convergence check on the reconstruction error ‖V − W·H‖: the
		// direct residual (the trace identity cancels catastrophically on
		// near-exact fits), float64 row sums folded in row order, so the
		// decision is the same for any worker count.
		if err := linalg.RowResidualsSquaredIntoCtx(ctx, rowErr, v, w, h, workers); err != nil {
			return nil, err
		}
		var sq float64
		for _, e := range rowErr {
			sq += e
		}
		cur := math.Sqrt(sq)
		converged := prevErr-cur < opts.Tolerance*(prevErr+epsilon)
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
	return &Result{W: widen(w), H: widen(h), FrobeniusError: prevErr, RelativeError: rel, Iterations: iterations}, nil
}

// The CPUID gates of linalg's assembly kernels. linalg exports no switch
// for them (kernel selection is not an option of the engine), so the tests
// here reach the two variables by name to run on the portable kernels too,
// as linalg's own property tests do from inside the package.
//
//go:linkname linalgUseAsm repro/internal/linalg.useAsm
var linalgUseAsm bool

//go:linkname linalgUseAsmF32 repro/internal/linalg.useAsmF32
var linalgUseAsmF32 bool

// onKernelPaths runs fn on the active kernel path and, where that is the
// assembly one, once more with every linalg kernel forced onto portable Go.
func onKernelPaths(t *testing.T, fn func(t *testing.T, path string)) {
	t.Run("active", func(t *testing.T) {
		if linalgUseAsm && linalgUseAsmF32 {
			fn(t, "asm")
		} else {
			fn(t, "portable")
		}
	})
	if linalgUseAsm || linalgUseAsmF32 {
		a, a32 := linalgUseAsm, linalgUseAsmF32
		linalgUseAsm, linalgUseAsmF32 = false, false
		defer func() { linalgUseAsm, linalgUseAsmF32 = a, a32 }()
		t.Run("portable", func(t *testing.T) { fn(t, "portable") })
	}
}

// sameBits fails the test unless the two results agree in every bit.
func sameBits(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Errorf("%s: %d iterations, oracle %d", what, got.Iterations, want.Iterations)
	}
	if math.Float64bits(got.FrobeniusError) != math.Float64bits(want.FrobeniusError) ||
		math.Float64bits(got.RelativeError) != math.Float64bits(want.RelativeError) {
		t.Errorf("%s: error %g/%g, oracle %g/%g", what,
			got.FrobeniusError, got.RelativeError, want.FrobeniusError, want.RelativeError)
	}
	for _, f := range []struct {
		name      string
		got, want *linalg.Matrix
	}{{"W", got.W, want.W}, {"H", got.H, want.H}} {
		if f.got.Rows != f.want.Rows || f.got.Cols != f.want.Cols {
			t.Fatalf("%s: %s is %dx%d, oracle %dx%d", what, f.name, f.got.Rows, f.got.Cols, f.want.Rows, f.want.Cols)
		}
		for i, x := range f.want.Data {
			if math.Float64bits(f.got.Data[i]) != math.Float64bits(x) {
				t.Fatalf("%s: %s[%d] = %g, oracle %g (must be bit-identical)", what, f.name, i, f.got.Data[i], x)
			}
		}
	}
}

// TestFusedIterationMatchesThreePassOracle: the fused W-update + residual
// strip pass leaves every bit of the three-pass iteration's result in
// place — W, H, both errors and the iteration count — at both precisions,
// on both kernel paths, for worker counts that divide the strips evenly
// and that do not, row counts on and off the strip size (and below one
// strip), every side of the residual kernel's four-k accumulate pass, and
// runs that stop on the tolerance as well as on the iteration bound.
func TestFusedIterationMatchesThreePassOracle(t *testing.T) {
	onKernelPaths(t, func(t *testing.T, _ string) {
		t.Run("float64", testFusedMatchesThreePass[float64])
		t.Run("float32", testFusedMatchesThreePass[float32])
	})
}

func testFusedMatchesThreePass[F linalg.Float](t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(126))
	early := 0
	all := []int{1, 2, 4, 5, 9}
	for _, c := range []struct {
		rows, cols, mix int
		ranks           []int
		opts            Options
	}{
		{11, 45, 2, all, Options{MaxIterations: 15}},
		{37, 131, 3, all, Options{MaxIterations: 15}},
		{96, 64, 4, all, Options{MaxIterations: 15}},
		{70, 515, 5, all, Options{MaxIterations: 8}},
		// The loose tolerance stops these two after 3 and 108 iterations.
		{45, 70, 4, []int{1, 2}, Options{Tolerance: 1e-3}},
	} {
		rows, _ := syntheticMix(rng, c.rows, c.cols, c.mix)
		v := matOf[F](rows)
		for _, rank := range c.ranks {
			for _, workers := range []int{1, 2, 3, 7} {
				opts := c.opts
				opts.Rank, opts.Seed, opts.Workers = rank, int64(rank), workers
				what := fmt.Sprintf("%dx%d rank %d workers %d", c.rows, c.cols, rank, workers)
				got, err := FactorizeMatContext(ctx, v, opts)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				want, err := factorizeThreePass(ctx, v, opts)
				if err != nil {
					t.Fatalf("%s: oracle: %v", what, err)
				}
				sameBits(t, what, got, want)
				if want.Iterations < opts.withDefaults().MaxIterations {
					early++
				}
			}
		}
	}
	if early == 0 {
		t.Error("no case converged before MaxIterations: the convergence decision went uncompared")
	}
}

// parentFactorDigests are the SHA-256 of W, H, FrobeniusError and
// Iterations of a rank-5 factorisation of a seeded synth city (70 towers ×
// 14 days of 10-minute slots, 40 iterations), computed at commit 9e92977 —
// before the residual had an assembly kernel and before the W update and
// the residual shared a strip pass — per precision and per kernel path of
// the dot products, on amd64, and never regenerated.
var parentFactorDigests = map[string]string{
	"asm/float64":      "755f6bfa15cc7566d212e9ddfafb64adade4b6cce66df2269b19f8d5b03e7182",
	"asm/float32":      "007695e5c5a2663847052de442c0d2bdcbb958dac4f3feaf72365fa4ba4eb024",
	"portable/float64": "73aee092dd178b8b4778820ad93e10b52036ce653dce5307101f873e771f0b42",
	"portable/float32": "4ddf08b4843b6afe0b000080ffbe392587f140737e4539187ce7b9f09ed5827a",
}

// TestFusedFactorizeMatchesParentDigest: the factors are bit-identical to
// the parent commit's, for every worker count.
func TestFusedFactorizeMatchesParentDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests were taken on amd64; other compilers fuse the portable multiply-adds")
	}
	cfg := synth.SmallConfig()
	cfg.Towers, cfg.Days, cfg.SlotMinutes, cfg.Seed = 70, 14, 10, 26
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]linalg.Vector, len(series))
	for i, s := range series {
		rows[i] = linalg.Vector(s.Bytes)
	}
	onKernelPaths(t, func(t *testing.T, path string) {
		t.Run("float64", func(t *testing.T) { testFactorDigest(t, matOf[float64](rows), path+"/float64") })
		t.Run("float32", func(t *testing.T) { testFactorDigest(t, matOf[float32](rows), path+"/float32") })
	})
}

func testFactorDigest[F linalg.Float](t *testing.T, v *linalg.Mat[F], key string) {
	for _, workers := range []int{1, 2, 3} {
		res, err := FactorizeMatContext(context.Background(), v, Options{Rank: 5, Seed: 26, MaxIterations: 40, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		put := func(x uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
		put(uint64(res.Iterations))
		put(math.Float64bits(res.FrobeniusError))
		for _, x := range res.W.Data {
			put(math.Float64bits(x))
		}
		for _, x := range res.H.Data {
			put(math.Float64bits(x))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != parentFactorDigests[key] {
			t.Errorf("%s workers %d: digest %s after %d iterations, parent commit %s", key, workers, got, res.Iterations, parentFactorDigests[key])
		}
	}
}
