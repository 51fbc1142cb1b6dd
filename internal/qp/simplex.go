// Package qp solves the small quadratic programs needed by the
// frequency-domain component analysis of Section 5.3 of the paper:
//
//	minimise   ‖F − Σ_i x_i·F⁰_i‖²
//	subject to Σ_i x_i = 1,  x_i ≥ 0
//
// i.e. least squares over the probability simplex. The dimensionality is
// tiny (four primary components, three-dimensional features), so the solver
// favours robustness and exactness over asymptotic speed: it runs projected
// gradient descent with an exact Euclidean projection onto the simplex,
// followed by an active-set polish step that solves the reduced
// equality-constrained problem exactly on the detected support.
package qp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Errors returned by the solver.
var (
	// ErrNoComponents is returned when no basis components are supplied.
	ErrNoComponents = errors.New("qp: no components")
	// ErrDimensionMismatch is returned when the target and the components
	// do not share the same dimensionality.
	ErrDimensionMismatch = errors.New("qp: dimension mismatch")
)

// Options configure the simplex least-squares solver. The zero value is
// usable; Defaults fills in sensible values for unset fields.
type Options struct {
	// MaxIterations bounds the projected-gradient iterations (default 2000).
	MaxIterations int
	// Tolerance is the convergence threshold on the change of the objective
	// (default 1e-12).
	Tolerance float64
}

func (o Options) withDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 2000
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-12
	}
	return o
}

// Result is the outcome of a simplex least-squares solve.
type Result struct {
	// Coefficients is the convex-combination weight vector x (sums to 1,
	// non-negative).
	Coefficients linalg.Vector
	// Residual is ‖F − Σ x_i F⁰_i‖, the distance from the target to the
	// polygon spanned by the components.
	Residual float64
	// Iterations is the number of projected-gradient iterations performed.
	Iterations int
}

// SolveSimplexLS finds the convex combination of the component vectors that
// best approximates the target in the least-squares sense.
func SolveSimplexLS(target linalg.Vector, components []linalg.Vector, opts Options) (*Result, error) {
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

	// gx holds G·x and sorted the projection's sorted copy: the only
	// scratch the iterations need, allocated once per solve. mulG is
	// MulVec's loop into gx (linalg.DotInto would reorder the sums).
	gx := make(linalg.Vector, m)
	sorted := make(linalg.Vector, m)
	mulG := func(x linalg.Vector) {
		for i := range gx {
			var s float64
			for j, gij := range g.Data[i*m : (i+1)*m] {
				s += gij * x[j]
			}
			gx[i] = s
		}
	}
	obj := func(x linalg.Vector) float64 {
		mulG(x)
		xgx, _ := x.Dot(gx)
		bx, _ := b.Dot(x)
		return xgx - 2*bx
	}

	prev := obj(x)
	iters := 0
	for ; iters < opts.MaxIterations; iters++ {
		// Gradient: 2(Gx - b).
		mulG(x)
		for i := range x {
			x[i] -= step * 2 * (gx[i] - b[i])
		}
		projectSimplexInPlace(x, sorted)
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

// polishActiveSet solves min x'Gx - 2b'x subject to Σx=1 over the support
// of x (entries above a small threshold), with inactive entries fixed at
// zero. It returns ok=false if the reduced KKT system is singular or the
// solution leaves the simplex.
func polishActiveSet(g *linalg.Matrix, b, x linalg.Vector) (linalg.Vector, bool) {
	m := len(x)
	support := make([]int, 0, m)
	for i, v := range x {
		if v > 1e-9 {
			support = append(support, i)
		}
	}
	if len(support) == 0 {
		return nil, false
	}
	s := len(support)
	// KKT system for: minimise y'Ĝy - 2b̂'y s.t. 1'y = 1:
	//   [2Ĝ  1] [y]   [2b̂]
	//   [1ᵀ  0] [λ] = [1 ]
	// Solve via elimination: y = Ĝ⁻¹(b̂ - λ/2·1), pick λ so Σy = 1.
	gh := linalg.NewMatrix(s, s)
	bh := make(linalg.Vector, s)
	for a, i := range support {
		bh[a] = b[i]
		for c, j := range support {
			gh.Set(a, c, g.At(i, j))
		}
	}
	// Regularise slightly to guarantee positive definiteness.
	for i := 0; i < s; i++ {
		gh.Set(i, i, gh.At(i, i)+1e-12)
	}
	ones := make(linalg.Vector, s)
	for i := range ones {
		ones[i] = 1
	}
	ginvB, err1 := linalg.SolveSPD(gh, bh)
	ginvOnes, err2 := linalg.SolveSPD(gh, ones)
	if err1 != nil || err2 != nil {
		return nil, false
	}
	sumGB := ginvB.Sum()
	sumGO := ginvOnes.Sum()
	if sumGO == 0 {
		return nil, false
	}
	// Σy = Σ Ĝ⁻¹b̂ - (λ/2)·Σ Ĝ⁻¹1 = 1  →  λ/2 = (Σ Ĝ⁻¹b̂ - 1)/Σ Ĝ⁻¹1.
	halfLambda := (sumGB - 1) / sumGO
	out := make(linalg.Vector, m)
	for a, i := range support {
		y := ginvB[a] - halfLambda*ginvOnes[a]
		if y < -1e-9 {
			return nil, false
		}
		if y < 0 {
			y = 0
		}
		out[i] = y
	}
	// Renormalise away rounding error.
	total := out.Sum()
	if total <= 0 {
		return nil, false
	}
	out.ScaleInPlace(1 / total)
	return out, true
}

// projectSimplexInPlace overwrites v with its Euclidean projection onto
// the probability simplex {x : Σx = 1, x ≥ 0} using the sort-based
// algorithm of Held, Wolfe & Crowder. sorted is scratch of the same length; it is sorted descending
// by insertion, which for the handful of components a decomposition has
// beats a general sort and allocates nothing. NaNs order last, as
// sort.Float64Slice would put them.
func projectSimplexInPlace(v, sorted linalg.Vector) {
	for i, x := range v {
		j := i
		for ; j > 0 && (sorted[j-1] < x || (math.IsNaN(sorted[j-1]) && !math.IsNaN(x))); j-- {
			sorted[j] = sorted[j-1]
		}
		sorted[j] = x
	}
	var cumsum, theta float64
	for i, x := range sorted {
		cumsum += x
		if t := (cumsum - 1) / float64(i+1); x-t > 0 {
			theta = t
		}
	}
	for i, x := range v {
		if d := x - theta; d > 0 {
			v[i] = d
		} else {
			v[i] = 0
		}
	}
}
