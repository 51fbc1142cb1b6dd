// Package anomaly detects traffic anomalies at individual cellular towers
// using the paper's frequency-domain model as the notion of "normal": a
// tower's expected traffic is its band-limited reconstruction from the
// principal spectral components (plus, optionally, daily harmonics and
// weekly sidebands), and slots whose residual is far outside the tower's
// own residual distribution are flagged. This is the operational flip side
// of the paper's ISP use case — once every tower has a compact model of its
// pattern, deviations (special events, outages, flash crowds) stand out.
package anomaly

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dsp"
	"repro/internal/linalg"
	"repro/internal/panicsafe"
)

// Disabled switches a float Options field off entirely. The zero value of
// a field keeps its documented default, so "off" needs an explicit
// sentinel: any negative value works, Disabled is the canonical spelling.
const Disabled = -1

// harmonics is the number of daily harmonics kept in the expected traffic
// model — the day and half-day principal components are the first two —
// each with its weekly sidebands. More harmonics give a tighter "normal"
// band but start absorbing genuine anomalies.
const harmonics = 5

// Options configure the detector.
type Options struct {
	// Threshold is the number of robust standard deviations (scaled MAD) a
	// slot's residual must exceed to be flagged. Zero means the default of
	// 5; any positive value (including sub-default ones like 0.5) is used
	// as given; Disabled (any negative value) removes the score cut
	// entirely, flagging every slot that clears MinRelativeDeviation.
	Threshold float64
	// MinRelativeDeviation additionally requires the residual to be at
	// least this fraction of the tower's mean traffic, which suppresses
	// statistically-significant-but-tiny deviations during quiet hours.
	// Zero means the default of 0.5; Disabled (any negative value) turns
	// the filter off so purely statistical deviations are reported too.
	MinRelativeDeviation float64
}

func (o Options) withDefaults() Options {
	switch {
	case o.Threshold == 0:
		o.Threshold = 5
	case o.Threshold < 0:
		o.Threshold = 0
	}
	switch {
	case o.MinRelativeDeviation == 0:
		o.MinRelativeDeviation = 0.5
	case o.MinRelativeDeviation < 0:
		o.MinRelativeDeviation = 0
	}
	return o
}

// Anomaly is one flagged slot.
type Anomaly struct {
	// Slot is the index into the traffic vector.
	Slot int
	// Observed and Expected are the actual and modelled traffic of the slot.
	Observed, Expected float64
	// Score is the residual in robust standard deviations.
	Score float64
}

// Report is the outcome of detection on one tower: the model's description
// and the slots it flagged. The modelled traffic itself is not kept — a
// reader that wants it rebuilds it from Bins (dsp.Plan.Reconstruct, negative
// slots clamped to zero); every flagged slot carries its own Expected.
type Report struct {
	// Bins are the spectral bins retained by the expected-traffic model,
	// sorted and unique.
	Bins []int
	// Scale is the robust scale (1.4826 × MAD) of the *relative* residuals
	// (Observed − Expected) / Expected. Traffic noise is multiplicative —
	// busy slots deviate by more bytes than quiet ones — so scoring
	// relative residuals keeps the false-positive rate flat across the day.
	Scale float64
	// Anomalies lists the flagged slots in descending score order.
	Anomalies []Anomaly
}

// Errors returned by Detect.
var (
	ErrEmptySignal = errors.New("anomaly: empty traffic vector")
	ErrBadShape    = errors.New("anomaly: traffic does not cover whole weeks")
)

// Detect models the tower's expected traffic from its own spectrum and
// flags the slots whose residuals are extreme. traffic must cover nDays
// whole days (a multiple of 7). The spectral model runs on an FFT plan from
// the package-level pool; DetectAllContext keeps one plan and one scratch
// per worker across towers.
func Detect(traffic linalg.Vector, nDays int, opts Options) (*Report, error) {
	var d detector
	defer d.release()
	return d.detect(traffic, nDays, opts)
}

// detector is the reusable state of one sweep worker: the pooled FFT plan
// of the current vector length and the three scratch vectors of that length
// that never leave detect — the expected-traffic reconstruction, the
// relative residuals and the buffer the robust scale selects on. A tower
// costs only what its report keeps: the bin list and the flagged slots.
type detector struct {
	plan                     *dsp.Plan
	expected, relative, work linalg.Vector
}

// release hands the plan back to the pool.
func (d *detector) release() {
	if d.plan != nil {
		d.plan.Release()
		d.plan = nil
	}
}

// resize readies the plan and scratch for vectors of length n.
func (d *detector) resize(n int) error {
	if d.plan != nil && d.plan.N() == n {
		return nil
	}
	d.release()
	plan, err := dsp.AcquirePlan(n)
	if err != nil {
		return err
	}
	d.plan = plan
	d.expected = make(linalg.Vector, n)
	d.relative = make(linalg.Vector, n)
	d.work = make(linalg.Vector, n)
	return nil
}

// detect is Detect on the worker's reusable state.
func (d *detector) detect(traffic linalg.Vector, nDays int, opts Options) (*Report, error) {
	if len(traffic) == 0 {
		return nil, ErrEmptySignal
	}
	if !traffic.IsFinite() {
		return nil, fmt.Errorf("%w: non-finite traffic values", ErrEmptySignal)
	}
	opts = opts.withDefaults()
	week, day, _, err := dsp.PrincipalBins(len(traffic), nDays)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadShape, err)
	}
	if err := d.resize(len(traffic)); err != nil {
		return nil, err
	}
	// The bin list is also the model's description (counted, exported,
	// summed by the serving API), so the report owns its copy.
	bins := dsp.HarmonicBins(make([]int, 0, 1+3*harmonics), len(traffic), week, day, harmonics)
	expected := d.expected
	if err := d.plan.ReconstructInto(expected, traffic, bins...); err != nil {
		return nil, err
	}
	for i, v := range expected {
		if v < 0 {
			expected[i] = 0
		}
	}

	mean := traffic.Mean()
	// Floor for the denominator of relative residuals so near-zero expected
	// slots do not explode the score.
	floor := 0.05 * mean
	if floor <= 0 {
		floor = 1
	}
	relative := d.relative
	for i := range traffic {
		relative[i] = (traffic[i] - expected[i]) / math.Max(expected[i], floor)
	}
	scale := robustScale(relative, d.work)
	// A scale that is effectively zero means the model reproduces the
	// signal to numerical precision (e.g. constant traffic); there is
	// nothing to score against.
	if scale < 1e-9 {
		scale = 0
	}

	report := &Report{Bins: bins, Scale: scale}
	if scale == 0 {
		return report, nil
	}
	for i, rel := range relative {
		score := math.Abs(rel) / scale
		if score < opts.Threshold {
			continue
		}
		if math.Abs(traffic[i]-expected[i]) < opts.MinRelativeDeviation*mean {
			continue
		}
		report.Anomalies = append(report.Anomalies, Anomaly{
			Slot:     i,
			Observed: traffic[i],
			Expected: expected[i],
			Score:    score,
		})
	}
	sort.Slice(report.Anomalies, func(a, b int) bool {
		return report.Anomalies[a].Score > report.Anomalies[b].Score
	})
	return report, nil
}

// robustScale returns 1.4826 × the median absolute deviation of v, a
// standard-deviation estimate that ignores the outliers being hunted. Both
// medians are selected in place on work (scratch of len(v), overwritten)
// in expected O(n); v itself is left untouched. The sort-based form this
// replaced is robustScaleOracle in oracle_test.go.
func robustScale(v, work linalg.Vector) float64 {
	if len(v) == 0 {
		return 0
	}
	copy(work, v)
	med := linalg.QuantileInPlace(work, 0.5)
	for i, x := range v {
		work[i] = math.Abs(x - med)
	}
	return 1.4826 * linalg.QuantileInPlace(work, 0.5)
}

// DetectAll is DetectAllContext without cancellation on a GOMAXPROCS-wide
// pool.
func DetectAll(traffic []linalg.Vector, nDays int, opts Options) ([]*Report, error) {
	return DetectAllContext(context.Background(), traffic, nDays, opts, 0)
}

// DetectAllContext runs Detect on every tower and returns the reports in
// input order. The towers fan out over panicsafe.ForEach on up to `workers`
// goroutines (≤ 0 means GOMAXPROCS; 1 runs the sweep on the calling
// goroutine), each reusing one pooled FFT plan and one scratch across its
// towers. Every report is computed from its own row alone, so the result is
// identical for any worker count, and when several towers fail the error
// names the lowest of them.
func DetectAllContext(ctx context.Context, traffic []linalg.Vector, nDays int, opts Options, workers int) ([]*Report, error) {
	out := make([]*Report, len(traffic))
	workers = min(linalg.ResolveWorkers(workers), len(traffic))
	detectors := make([]detector, max(workers, 1))
	defer func() {
		for w := range detectors {
			detectors[w].release()
		}
	}()
	err := panicsafe.ForEach(ctx, len(traffic), workers, func(w, i int) error {
		r, err := detectors[w].detect(traffic[i], nDays, opts)
		if err != nil {
			return fmt.Errorf("anomaly: tower %d: %w", i, err)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
