package freqdomain

import (
	"errors"
	"fmt"

	"repro/internal/dsp"
	"repro/internal/linalg"
	"repro/internal/qp"
)

// Decomposition is the convex-combination representation of one tower's
// traffic in terms of the four primary components (Section 5.3, Table 6).
type Decomposition struct {
	// Coefficients[i] is the weight of primary component i; the weights are
	// non-negative and sum to one.
	Coefficients linalg.Vector
	// Residual is the feature-space distance between the tower and its
	// projection onto the polygon spanned by the primary components.
	Residual float64
}

// ErrNoPrimaries is returned when no primary components are supplied.
var ErrNoPrimaries = errors.New("freqdomain: no primary components")

// Decompose expresses the target tower's three-dimensional feature as a
// convex combination of the primary towers' features by solving the
// quadratic program of Section 5.3:
//
//	minimise ‖F − Σ x_i F⁰_i‖²  s.t.  Σ x_i = 1,  x_i ≥ 0
//
// The solution is exact, not iterated: the optimum lies in the relative
// interior of one face of the simplex, where it solves a small
// equality-constrained least squares, so qp.SolveSimplexLS solves that on
// all 2⁴ − 1 = 15 faces of the four primaries' simplex and keeps the best
// feasible one.
func Decompose(target Features, primaries []Features) (*Decomposition, error) {
	if len(primaries) == 0 {
		return nil, ErrNoPrimaries
	}
	comps := make([]linalg.Vector, len(primaries))
	for i, p := range primaries {
		comps[i] = p.Vector3()
	}
	res, err := qp.SolveSimplexLS(target.Vector3(), comps)
	if err != nil {
		return nil, fmt.Errorf("freqdomain: decomposing tower %d: %w", target.Index, err)
	}
	return &Decomposition{Coefficients: res.Coefficients, Residual: res.Residual}, nil
}

// DecomposeAll decomposes every target tower against the same primaries.
func DecomposeAll(targets []Features, primaries []Features) ([]*Decomposition, error) {
	out := make([]*Decomposition, len(targets))
	for i, t := range targets {
		d, err := Decompose(t, primaries)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// TimeCombination is the Figure 19 view of a decomposition: the traffic of
// a comprehensive-area tower split into the time-domain contributions of
// the four primary patterns.
type TimeCombination struct {
	// Components[i] is coefficient_i × the band-limited reconstruction of
	// primary pattern i's traffic, in the primary order passed in.
	Components []linalg.Vector
	// Combined is the element-wise sum of the components.
	Combined linalg.Vector
}

// CombineTimeDomain reconstructs each primary tower's traffic from its
// three principal frequency components, scales it by the decomposition
// coefficient and stacks the results. primarySeries[i] must be the
// (normalised) traffic vector of primary tower i; nDays is the number of
// whole days it covers.
func CombineTimeDomain(d *Decomposition, primarySeries []linalg.Vector, nDays int) (*TimeCombination, error) {
	if d == nil {
		return nil, errors.New("freqdomain: nil decomposition")
	}
	if len(primarySeries) != len(d.Coefficients) {
		return nil, fmt.Errorf("freqdomain: %d primary series for %d coefficients", len(primarySeries), len(d.Coefficients))
	}
	if len(primarySeries) == 0 {
		return nil, ErrNoPrimaries
	}
	n := len(primarySeries[0])
	week, day, half, err := dsp.PrincipalBins(n, nDays)
	if err != nil {
		return nil, err
	}
	plan, err := dsp.AcquirePlan(n)
	if err != nil {
		return nil, err
	}
	defer plan.Release()
	out := &TimeCombination{
		Components: make([]linalg.Vector, len(primarySeries)),
		Combined:   make(linalg.Vector, n),
	}
	for i, series := range primarySeries {
		if len(series) != n {
			return nil, fmt.Errorf("%w: series %d has %d samples, want %d", ErrBadShape, i, len(series), n)
		}
		comp := make(linalg.Vector, n)
		if err := plan.ReconstructInto(comp, series, week, day, half); err != nil {
			return nil, err
		}
		comp.ScaleInPlace(d.Coefficients[i])
		out.Components[i] = comp
		if err := out.Combined.AddInPlace(comp); err != nil {
			return nil, err
		}
	}
	return out, nil
}
