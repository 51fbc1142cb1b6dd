package qp

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func onSimplex(x linalg.Vector, tol float64) bool {
	var sum float64
	for _, v := range x {
		if v < -tol {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) <= tol
}

func TestSolveSimplexLSErrors(t *testing.T) {
	if _, err := SolveSimplexLS(linalg.Vector{1}, nil); !errors.Is(err, ErrNoComponents) {
		t.Errorf("no components: got %v", err)
	}
	comps := []linalg.Vector{{1, 0}, {0, 1, 5}}
	if _, err := SolveSimplexLS(linalg.Vector{1, 1}, comps); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("dim mismatch: got %v", err)
	}
}

func TestSolveSimplexLSExactVertex(t *testing.T) {
	// The target equals one of the components → coefficient 1 on it.
	comps := []linalg.Vector{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}}
	res, err := SolveSimplexLS(linalg.Vector{0, 1, 0}, comps)
	if err != nil {
		t.Fatal(err)
	}
	if !onSimplex(res.Coefficients, 1e-6) {
		t.Fatalf("coefficients off simplex: %v", res.Coefficients)
	}
	if !almostEqual(res.Coefficients[1], 1, 1e-4) {
		t.Errorf("vertex coefficient = %v, want e2", res.Coefficients)
	}
	if res.Residual > 1e-4 {
		t.Errorf("residual = %g, want ~0", res.Residual)
	}
}

func TestSolveSimplexLSInteriorPoint(t *testing.T) {
	// Target is an exact convex combination of the vertices of a triangle.
	comps := []linalg.Vector{{0, 0}, {1, 0}, {0, 1}}
	want := linalg.Vector{0.2, 0.5, 0.3}
	target := linalg.Vector{
		want[0]*0 + want[1]*1 + want[2]*0,
		want[0]*0 + want[1]*0 + want[2]*1,
	}
	res, err := SolveSimplexLS(target, comps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-6 {
		t.Errorf("residual = %g, want ~0", res.Residual)
	}
	for i := range want {
		if !almostEqual(res.Coefficients[i], want[i], 1e-4) {
			t.Errorf("coefficient[%d] = %g, want %g", i, res.Coefficients[i], want[i])
		}
	}
}

func TestSolveSimplexLSOutsidePolygon(t *testing.T) {
	// Target far outside the polygon projects to the nearest vertex.
	comps := []linalg.Vector{{0, 0}, {1, 0}, {0, 1}}
	res, err := SolveSimplexLS(linalg.Vector{5, 5}, comps)
	if err != nil {
		t.Fatal(err)
	}
	if !onSimplex(res.Coefficients, 1e-6) {
		t.Fatalf("coefficients off simplex: %v", res.Coefficients)
	}
	// Nearest point of the triangle to (5,5) is the edge midpoint (0.5, 0.5).
	wantResidual := math.Sqrt(2 * (4.5) * (4.5)) // distance from (5,5) to (0.5,0.5)
	if !almostEqual(res.Residual, wantResidual, 1e-3) {
		t.Errorf("residual = %g, want %g", res.Residual, wantResidual)
	}
	if res.Coefficients[0] > 1e-4 {
		t.Errorf("coefficient on the far vertex should be ~0, got %v", res.Coefficients)
	}
}

func TestSolveSimplexLSDegenerateComponents(t *testing.T) {
	// All components identical — any simplex point is optimal; the solver
	// must still return a feasible answer with the correct residual.
	comps := []linalg.Vector{{1, 1}, {1, 1}, {1, 1}}
	res, err := SolveSimplexLS(linalg.Vector{2, 2}, comps)
	if err != nil {
		t.Fatal(err)
	}
	if !onSimplex(res.Coefficients, 1e-6) {
		t.Fatalf("coefficients off simplex: %v", res.Coefficients)
	}
	if !almostEqual(res.Residual, math.Sqrt(2), 1e-6) {
		t.Errorf("residual = %g, want √2", res.Residual)
	}
}

func TestSolveSimplexLSZeroTarget(t *testing.T) {
	comps := []linalg.Vector{{1, 0}, {0, 1}}
	res, err := SolveSimplexLS(linalg.Vector{0, 0}, comps)
	if err != nil {
		t.Fatal(err)
	}
	if !onSimplex(res.Coefficients, 1e-6) {
		t.Fatalf("coefficients off simplex: %v", res.Coefficients)
	}
	// Closest simplex point to origin is (0.5, 0.5) with distance √0.5.
	if !almostEqual(res.Residual, math.Sqrt(0.5), 1e-4) {
		t.Errorf("residual = %g, want √0.5", res.Residual)
	}
}

// Property: solutions always lie on the simplex and achieve a residual no
// worse than any of the individual vertices.
func TestSolveSimplexLSProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed uint8) bool {
		dim := int(seed%4) + 2
		m := int(seed%3) + 2
		comps := make([]linalg.Vector, m)
		for i := range comps {
			c := make(linalg.Vector, dim)
			for j := range c {
				c[j] = rng.NormFloat64()
			}
			comps[i] = c
		}
		target := make(linalg.Vector, dim)
		for j := range target {
			target[j] = rng.NormFloat64()
		}
		res, err := SolveSimplexLS(target, comps)
		if err != nil {
			return false
		}
		if !onSimplex(res.Coefficients, 1e-6) {
			return false
		}
		for _, c := range comps {
			d, _ := linalg.Distance(target, c)
			if res.Residual > d+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// solveSimplexLSOracle is SolveSimplexLS as it stood before it enumerated
// the simplex's faces: up to 2000 projected-gradient steps from the uniform
// combination, stopped once the objective changes by less than 1e-12
// relative, then an active-set polish that solves the face holding the
// iterate's support (entries above 1e-9) and keeps that solution if it does
// not raise the objective. It also returns the iteration count. The polish
// is solveFace, whose arithmetic is the old polish's; the rest is kept as it
// was, as the reference the exact solver must never lose to.
func solveSimplexLSOracle(target linalg.Vector, components []linalg.Vector) (*Result, int, error) {
	const maxIterations, tolerance = 2000, 1e-12
	p, err := newProblem(target, components)
	if err != nil {
		return nil, 0, err
	}
	m := len(components)
	g := &linalg.Matrix{Rows: m, Cols: m, Data: p.g}
	b := linalg.Vector(p.b)

	// Lipschitz constant of the gradient: 2·λ_max(G) ≤ 2·trace(G).
	var trace float64
	for i := 0; i < m; i++ {
		trace += g.At(i, i)
	}
	step := 1.0
	if trace > 0 {
		step = 1.0 / (2 * trace)
	}

	// Start from the uniform combination.
	x := make(linalg.Vector, m)
	for i := range x {
		x[i] = 1.0 / float64(m)
	}

	obj := func(x linalg.Vector) float64 {
		gx, _ := g.MulVec(x)
		xgx, _ := x.Dot(gx)
		bx, _ := b.Dot(x)
		return xgx - 2*bx
	}

	prev := obj(x)
	iters := 0
	for ; iters < maxIterations; iters++ {
		// Gradient: 2(Gx - b).
		gx, _ := g.MulVec(x)
		for i := range x {
			x[i] -= step * 2 * (gx[i] - b[i])
		}
		x = projectSimplexOracle(x)
		cur := obj(x)
		if math.Abs(prev-cur) < tolerance*(math.Abs(prev)+1) {
			prev = cur
			iters++
			break
		}
		prev = cur
	}

	// Active-set polish on the support the projected gradient found.
	face := 0
	for i, v := range x {
		if v > 1e-9 {
			face |= 1 << i
		}
	}
	polished := make(linalg.Vector, m)
	if face != 0 && p.solveFace(face, polished) && obj(polished) <= prev+1e-15 {
		x = polished
	}

	// Residual ‖F − A·x‖.
	approx := make(linalg.Vector, len(target))
	for i, c := range components {
		for j := range approx {
			approx[j] += x[i] * c[j]
		}
	}
	diff, _ := target.Sub(approx)
	return &Result{Coefficients: x, Residual: diff.Norm()}, iters, nil
}

// projectSimplexOracle is the oracle's Euclidean projection onto the
// probability simplex (Held, Wolfe & Crowder's sort-based algorithm).
func projectSimplexOracle(v linalg.Vector) linalg.Vector {
	n := len(v)
	if n == 0 {
		return linalg.Vector{}
	}
	sorted := v.Clone()
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var cumsum, theta float64
	k := 0
	for i := 0; i < n; i++ {
		cumsum += sorted[i]
		t := (cumsum - 1) / float64(i+1)
		if sorted[i]-t > 0 {
			theta = t
			k = i + 1
		}
	}
	_ = k
	out := make(linalg.Vector, n)
	for i, x := range v {
		if d := x - theta; d > 0 {
			out[i] = d
		}
	}
	return out
}

// randomProblem draws a decomposition-shaped problem: m components and a
// target in dim dimensions.
func randomProblem(rng *rand.Rand, m, dim int) (linalg.Vector, []linalg.Vector) {
	comps := make([]linalg.Vector, m)
	for i := range comps {
		c := make(linalg.Vector, dim)
		for j := range c {
			c[j] = rng.NormFloat64()
		}
		comps[i] = c
	}
	target := make(linalg.Vector, dim)
	for j := range target {
		target[j] = rng.NormFloat64()
	}
	return target, comps
}

// kktGap measures how far x is from satisfying the optimality conditions
// of min ‖F − A·x‖² over the simplex. With gradient ∇ = 2(Gx − b), x is
// optimal iff ∇ is equal, say to μ, on the support of x and no smaller off
// it. The gap is the largest violation of either, relative to the problem's
// scale (1 + max |G_ij| + max |b_i|), so badly scaled columns are held to
// the same standard as unit ones.
func kktGap(target linalg.Vector, comps []linalg.Vector, x linalg.Vector) float64 {
	m := len(comps)
	grad := make([]float64, m)
	scale := 1.0
	for i := range comps {
		var gx float64
		for j := range comps {
			gij, _ := comps[i].Dot(comps[j])
			gx += gij * x[j]
			scale = math.Max(scale, 1+math.Abs(gij))
		}
		bi, _ := comps[i].Dot(target)
		scale = math.Max(scale, 1+math.Abs(bi))
		grad[i] = 2 * (gx - bi)
	}
	mu := math.Inf(1)
	for i, v := range x {
		if v > 0 {
			mu = math.Min(mu, grad[i])
		}
	}
	var gap float64
	for i, v := range x {
		if v > 0 {
			gap = math.Max(gap, grad[i]-mu) // equal on the support
		} else {
			gap = math.Max(gap, mu-grad[i]) // no smaller off it
		}
	}
	return gap / scale
}

// An optimality certificate on seeded random problems, a third of them with
// columns scaled over six decades: every solution lies on the simplex,
// satisfies the KKT conditions and never loses to the projected-gradient
// oracle.
func TestSolveSimplexLSOptimalityCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var worstGap float64
	for trial := 0; trial < 2000; trial++ {
		target, comps := randomProblem(rng, trial%4+1, trial%4+2)
		if trial%3 == 0 {
			for _, c := range comps {
				c.ScaleInPlace(math.Pow(10, rng.Float64()*6-3))
			}
		}
		res, err := SolveSimplexLS(target, comps)
		if err != nil {
			t.Fatal(err)
		}
		if !onSimplex(res.Coefficients, 1e-12) {
			t.Fatalf("trial %d: coefficients off simplex: %v", trial, res.Coefficients)
		}
		gap := kktGap(target, comps, res.Coefficients)
		worstGap = math.Max(worstGap, gap)
		if gap > 1e-9 {
			t.Errorf("trial %d: KKT gap %g at %v", trial, gap, res.Coefficients)
		}
		oracle, _, err := solveSimplexLSOracle(target, comps)
		if err != nil {
			t.Fatal(err)
		}
		if res.Residual > oracle.Residual+1e-12 {
			t.Errorf("trial %d: residual %.17g, oracle %.17g", trial, res.Residual, oracle.Residual)
		}
	}
	t.Logf("worst relative KKT gap %g", worstGap)
}

// One solve allocates its Gram matrix, scratch and result up front; the
// face solves in between — 15 of them here — allocate nothing.
func TestSolveSimplexLSAllocationCeiling(t *testing.T) {
	comps := []linalg.Vector{
		{0.9, 1.3, 0.2}, {0.4, 2.8, 0.7}, {0.7, 2.2, 0.1}, {0.5, 1.9, 0.4},
	}
	target := linalg.Vector{0.6, 2.0, 0.3}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := SolveSimplexLS(target, comps); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Errorf("SolveSimplexLS allocates %v times per solve, want ≤ 32", allocs)
	}
}

func BenchmarkSolveSimplexLS(b *testing.B) {
	comps := []linalg.Vector{
		{0.9, 1.3, 0.2}, {0.4, 2.8, 0.7}, {0.7, 2.2, 0.1}, {0.5, 1.9, 0.4},
	}
	target := linalg.Vector{0.6, 2.0, 0.3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSimplexLS(target, comps); err != nil {
			b.Fatal(err)
		}
	}
}
