// Package qp solves the small quadratic programs needed by the
// frequency-domain component analysis of Section 5.3 of the paper:
//
//	minimise   ‖F − Σ_i x_i·F⁰_i‖²
//	subject to Σ_i x_i = 1,  x_i ≥ 0
//
// i.e. least squares over the probability simplex. The solver is exact
// and has no iteration count or tolerance. The objective is convex, so its
// minimiser x* also minimises it over the affine hull of the simplex face
// whose relative interior holds x*, with the coordinates off that face
// fixed at zero: an equality-constrained least squares with a closed-form
// solution. SolveSimplexLS therefore solves that equality-constrained
// problem on every non-empty support, discards the solutions that leave
// the simplex and keeps the feasible one with the lowest objective. Every
// single-vertex face is feasible, so a solution always exists. The cost is
// 2^m − 1 solves of at most m unknowns; the paper's decomposition has
// m = 4 primary components, so 15 faces.
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

// Result is the outcome of a simplex least-squares solve.
type Result struct {
	// Coefficients is the convex-combination weight vector x (sums to 1,
	// non-negative).
	Coefficients linalg.Vector
	// Residual is ‖F − Σ x_i F⁰_i‖, the distance from the target to the
	// polygon spanned by the components.
	Residual float64
}

// SolveSimplexLS finds the convex combination of the component vectors that
// best approximates the target in the least-squares sense, by enumerating
// the 2^m − 1 faces of the simplex (see the package comment).
func SolveSimplexLS(target linalg.Vector, components []linalg.Vector) (*Result, error) {
	p, err := newProblem(target, components)
	if err != nil {
		return nil, err
	}
	m := len(components)
	x := make(linalg.Vector, m)
	best := math.Inf(1)
	for face := 1; face < 1<<m; face++ {
		if !p.solveFace(face, p.cand) {
			continue
		}
		if obj := p.objective(p.cand); obj < best {
			best = obj
			copy(x, p.cand)
		}
	}

	// Residual ‖F − A·x‖.
	approx := make(linalg.Vector, len(target))
	for i, c := range components {
		for j := range approx {
			approx[j] += x[i] * c[j]
		}
	}
	diff, _ := target.Sub(approx)
	return &Result{Coefficients: x, Residual: diff.Norm()}, nil
}

// problem is one solve's data: the Gram matrix G = AᵀA and the linear term
// b = AᵀF of the objective x'Gx − 2b'x (A has the components as columns),
// and the scratch every face reuses, allocated once.
type problem struct {
	m       int
	g       []float64 // G, row-major m×m
	b       []float64
	l       []float64     // the face's Cholesky factor, row-major s×s
	u, w    []float64     // Ĝ⁻¹b̂ and Ĝ⁻¹1 on the face
	cand    linalg.Vector // the face being solved
	support []int
}

func newProblem(target linalg.Vector, components []linalg.Vector) (problem, error) {
	m := len(components)
	if m == 0 {
		return problem{}, ErrNoComponents
	}
	d := len(target)
	for i, c := range components {
		if len(c) != d {
			return problem{}, fmt.Errorf("%w: component %d has dim %d, target has %d", ErrDimensionMismatch, i, len(c), d)
		}
	}
	work := make([]float64, 2*m*m+4*m)
	take := func(n int) []float64 {
		s := work[:n:n]
		work = work[n:]
		return s
	}
	p := problem{m: m, g: take(m * m), b: take(m), l: take(m * m), u: take(m), w: take(m), cand: take(m), support: make([]int, m)}
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			dot, _ := components[i].Dot(components[j])
			p.g[i*m+j] = dot
			p.g[j*m+i] = dot
		}
		p.b[i], _ = components[i].Dot(target)
	}
	return p, nil
}

// objective is x'Gx − 2b'x, the squared residual less the constant ‖F‖².
func (p *problem) objective(x linalg.Vector) float64 {
	var xgx, bx float64
	for i, xi := range x {
		var gxi float64
		for j, gij := range p.g[i*p.m : (i+1)*p.m] {
			gxi += gij * x[j]
		}
		xgx += xi * gxi
		bx += p.b[i] * xi
	}
	return xgx - 2*bx
}

// solveFace minimises y'Ĝy − 2b̂'y subject to Σy = 1 over the support named
// by the bits of face, with every other coordinate of x set to zero. The
// KKT system
//
//	[2Ĝ  1] [y]   [2b̂]
//	[1ᵀ  0] [λ] = [1 ]
//
// is solved by elimination: y = Ĝ⁻¹(b̂ − λ/2·1), with λ chosen so that
// Σy = 1. Ĝ gains 1e-12 on its diagonal to stay positive definite, and one
// Cholesky factor serves both right-hand sides. It reports false when the
// factorisation fails or y leaves the simplex by more than 1e-9; smaller
// excursions are clamped to zero and the result is renormalised.
func (p *problem) solveFace(face int, x linalg.Vector) bool {
	s := 0
	for i := 0; i < p.m; i++ {
		if face&(1<<i) != 0 {
			p.support[s] = i
			s++
		}
	}
	support, l, u, w := p.support[:s], p.l[:s*s], p.u[:s], p.w[:s]

	// Cholesky factorisation Ĝ + 1e-12·I = L·Lᵀ.
	for a, i := range support {
		for c, j := range support[:a+1] {
			sum := p.g[i*p.m+j]
			if a == c {
				sum += 1e-12
			}
			for k := 0; k < c; k++ {
				sum -= l[a*s+k] * l[c*s+k]
			}
			if a == c {
				if sum <= 0 {
					return false
				}
				l[a*s+a] = math.Sqrt(sum)
			} else {
				l[a*s+c] = sum / l[c*s+c]
			}
		}
	}
	// Forward substitution L·z = (b̂, 1), then backward Lᵀ·(u, w) = z.
	for a, i := range support {
		su, sw := p.b[i], 1.0
		for k := 0; k < a; k++ {
			su -= l[a*s+k] * u[k]
			sw -= l[a*s+k] * w[k]
		}
		u[a], w[a] = su/l[a*s+a], sw/l[a*s+a]
	}
	for a := s - 1; a >= 0; a-- {
		su, sw := u[a], w[a]
		for k := a + 1; k < s; k++ {
			su -= l[k*s+a] * u[k]
			sw -= l[k*s+a] * w[k]
		}
		u[a], w[a] = su/l[a*s+a], sw/l[a*s+a]
	}

	sumGB, sumGO := linalg.Vector(u).Sum(), linalg.Vector(w).Sum()
	if sumGO == 0 {
		return false
	}
	// Σy = Σ Ĝ⁻¹b̂ − (λ/2)·Σ Ĝ⁻¹1 = 1  →  λ/2 = (Σ Ĝ⁻¹b̂ − 1)/Σ Ĝ⁻¹1.
	halfLambda := (sumGB - 1) / sumGO
	clear(x)
	for a, i := range support {
		y := u[a] - halfLambda*w[a]
		if y < -1e-9 {
			return false
		}
		if y < 0 {
			y = 0
		}
		x[i] = y
	}
	// Renormalise away rounding error.
	total := x.Sum()
	if total <= 0 {
		return false
	}
	x.ScaleInPlace(1 / total)
	return true
}
