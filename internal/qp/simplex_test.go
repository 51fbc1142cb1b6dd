package qp

import (
	"errors"
	"fmt"
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

// projectSimplex is the allocating form of projectSimplexInPlace the tests
// probe it through: the input is not modified.
func projectSimplex(v linalg.Vector) linalg.Vector {
	out := v.Clone()
	projectSimplexInPlace(out, make(linalg.Vector, len(v)))
	return out
}

func TestProjectSimplexAlreadyFeasible(t *testing.T) {
	v := linalg.Vector{0.2, 0.3, 0.5}
	p := projectSimplex(v)
	for i := range v {
		if !almostEqual(p[i], v[i], 1e-12) {
			t.Errorf("projection changed a feasible point: %v -> %v", v, p)
		}
	}
}

func TestProjectSimplexKnownCases(t *testing.T) {
	// Projection of (2, 0) onto the simplex is (1, 0).
	p := projectSimplex(linalg.Vector{2, 0})
	if !almostEqual(p[0], 1, 1e-12) || !almostEqual(p[1], 0, 1e-12) {
		t.Errorf("projectSimplex(2,0) = %v, want (1,0)", p)
	}
	// Projection of (0.5, 0.5, 0.5) is uniform (1/3 each).
	p = projectSimplex(linalg.Vector{0.5, 0.5, 0.5})
	for i := range p {
		if !almostEqual(p[i], 1.0/3, 1e-12) {
			t.Errorf("projectSimplex uniform[%d] = %g, want 1/3", i, p[i])
		}
	}
	// Strongly negative coordinates collapse onto a vertex.
	p = projectSimplex(linalg.Vector{-5, 3, -5})
	if !almostEqual(p[1], 1, 1e-12) {
		t.Errorf("projectSimplex vertex = %v, want e2", p)
	}
	if len(projectSimplex(nil)) != 0 {
		t.Error("projection of empty vector should be empty")
	}
}

// Property: the projection is always feasible and is idempotent.
func TestProjectSimplexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed uint8) bool {
		n := int(seed%8) + 1
		v := make(linalg.Vector, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 10
		}
		p := projectSimplex(v)
		if !onSimplex(p, 1e-9) {
			return false
		}
		pp := projectSimplex(p)
		for i := range p {
			if !almostEqual(pp[i], p[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the projection is the closest feasible point — no random
// feasible point may be closer to the input.
func TestProjectSimplexOptimalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func(seed uint8) bool {
		n := int(seed%6) + 2
		v := make(linalg.Vector, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 5
		}
		p := projectSimplex(v)
		dp, _ := linalg.SquaredDistance(v, p)
		// Random feasible competitor from a Dirichlet-ish draw.
		q := make(linalg.Vector, n)
		var sum float64
		for i := range q {
			q[i] = rng.ExpFloat64()
			sum += q[i]
		}
		for i := range q {
			q[i] /= sum
		}
		dq, _ := linalg.SquaredDistance(v, q)
		return dp <= dq+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSolveSimplexLSErrors(t *testing.T) {
	if _, err := SolveSimplexLS(linalg.Vector{1}, nil, Options{}); !errors.Is(err, ErrNoComponents) {
		t.Errorf("no components: got %v", err)
	}
	comps := []linalg.Vector{{1, 0}, {0, 1, 5}}
	if _, err := SolveSimplexLS(linalg.Vector{1, 1}, comps, Options{}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("dim mismatch: got %v", err)
	}
}

func TestSolveSimplexLSExactVertex(t *testing.T) {
	// The target equals one of the components → coefficient 1 on it.
	comps := []linalg.Vector{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}}
	res, err := SolveSimplexLS(linalg.Vector{0, 1, 0}, comps, Options{})
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
	res, err := SolveSimplexLS(target, comps, Options{})
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
	res, err := SolveSimplexLS(linalg.Vector{5, 5}, comps, Options{})
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
	res, err := SolveSimplexLS(linalg.Vector{2, 2}, comps, Options{})
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
	res, err := SolveSimplexLS(linalg.Vector{0, 0}, comps, Options{})
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
		res, err := SolveSimplexLS(target, comps, Options{})
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

// solveSimplexLSOracle and projectSimplexOracle are SolveSimplexLS and
// ProjectSimplex as they stood before the solve loop became
// allocation-free (a fresh MulVec result for the gradient and for every
// objective, a sorted clone and an output vector per projection), kept
// verbatim as the reference the in-place loop must match bit for bit.
func solveSimplexLSOracle(target linalg.Vector, components []linalg.Vector, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	m := len(components)
	if m == 0 {
		return nil, ErrNoComponents
	}
	d := len(target)
	for i, c := range components {
		if len(c) != d {
			return nil, fmt.Errorf("%w: component %d has dim %d, target has %d", ErrDimensionMismatch, i, len(c), d)
		}
	}

	// Precompute the Gram matrix G = AᵀA and the linear term b = AᵀF where
	// A has the components as columns. Objective: x' G x - 2 b' x + const.
	g := linalg.NewMatrix(m, m)
	b := make(linalg.Vector, m)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			dot, _ := components[i].Dot(components[j])
			g.Set(i, j, dot)
			g.Set(j, i, dot)
		}
		dot, _ := components[i].Dot(target)
		b[i] = dot
	}

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
	for ; iters < opts.MaxIterations; iters++ {
		// Gradient: 2(Gx - b).
		gx, _ := g.MulVec(x)
		for i := range x {
			x[i] -= step * 2 * (gx[i] - b[i])
		}
		x = projectSimplexOracle(x)
		cur := obj(x)
		if math.Abs(prev-cur) < opts.Tolerance*(math.Abs(prev)+1) {
			prev = cur
			iters++
			break
		}
		prev = cur
	}

	// Active-set polish: solve the equality-constrained least squares on
	// the support detected by the projected gradient, which removes the
	// first-order method's residual bias for small problems.
	if polished, ok := polishActiveSet(g, b, x); ok {
		if obj(polished) <= prev+1e-15 {
			x = polished
		}
	}

	// Residual ‖F − A·x‖.
	approx := make(linalg.Vector, d)
	for i, c := range components {
		for j := range approx {
			approx[j] += x[i] * c[j]
		}
	}
	diff, _ := target.Sub(approx)
	return &Result{Coefficients: x, Residual: diff.Norm(), Iterations: iters}, nil
}

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

// The in-place solve loop keeps the arithmetic order of the allocating one,
// so coefficients, residual and iteration count are exactly equal — also
// when the iteration budget, not convergence, ends the loop.
func TestSolveSimplexLSMatchesAllocatingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		target, comps := randomProblem(rng, trial%6+1, trial%4+1)
		opts := Options{}
		if trial%5 == 0 {
			opts.MaxIterations = 7
		}
		got, err := SolveSimplexLS(target, comps, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solveSimplexLSOracle(target, comps, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != want.Iterations || got.Residual != want.Residual {
			t.Fatalf("trial %d: %d iterations, residual %g; oracle %d, %g",
				trial, got.Iterations, got.Residual, want.Iterations, want.Residual)
		}
		for i := range want.Coefficients {
			if got.Coefficients[i] != want.Coefficients[i] {
				t.Fatalf("trial %d: coefficient %d = %g, oracle %g (must be bit-identical)",
					trial, i, got.Coefficients[i], want.Coefficients[i])
			}
		}
	}
}

func TestProjectSimplexMatchesSortingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 300; trial++ {
		v := make(linalg.Vector, trial%9)
		for i := range v {
			v[i] = rng.NormFloat64() * 3
			if rng.Intn(8) == 0 && i > 0 {
				v[i] = v[i-1] // ties
			}
		}
		in := v.Clone()
		got, want := projectSimplex(v), projectSimplexOracle(v)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: projection[%d] = %g, oracle %g", trial, i, got[i], want[i])
			}
			if v[i] != in[i] {
				t.Fatalf("trial %d: projectSimplex modified its input", trial)
			}
		}
	}
}

// One solve allocates its Gram matrix, scratch and result up front and the
// polish step's small systems at the end; the projected-gradient iterations
// in between — up to 2000 of them — allocate nothing. The slow-converging
// problem below ran 4 allocations per iteration before.
func TestSolveSimplexLSAllocationCeiling(t *testing.T) {
	comps := []linalg.Vector{
		{0.9, 1.3, 0.2}, {0.4, 2.8, 0.7}, {0.7, 2.2, 0.1}, {0.5, 1.9, 0.4},
	}
	target := linalg.Vector{0.6, 2.0, 0.3}
	res, err := SolveSimplexLS(target, comps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 10 {
		t.Fatalf("problem converged in %d iterations: too easy to show per-iteration allocations", res.Iterations)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := SolveSimplexLS(target, comps, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Errorf("SolveSimplexLS allocates %v times per solve (%d iterations), want ≤ 32", allocs, res.Iterations)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxIterations != 2000 || o.Tolerance != 1e-12 {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{MaxIterations: 5, Tolerance: 0.1}.withDefaults()
	if o.MaxIterations != 5 || o.Tolerance != 0.1 {
		t.Errorf("explicit options overridden: %+v", o)
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
		if _, err := SolveSimplexLS(target, comps, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
