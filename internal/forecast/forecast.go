// Package forecast turns the paper's frequency-domain observation into a
// practical per-tower traffic forecaster — the ISP use case motivating the
// study (load balancing and tower-specific pricing need a cheap per-tower
// traffic model). A tower's traffic is dominated by a handful of spectral
// components, so a model that stores only those components predicts future
// weeks with a small fraction of the state a replay-based model needs.
//
// Three models are provided:
//
//   - SpectralModel: keeps a configurable set of frequency components of
//     the training window (the paper's three principal components by
//     default, optionally daily harmonics and their weekly sidebands) and
//     extrapolates them periodically;
//   - LastWeekModel: replays the final week of the training window;
//   - SlotOfWeekMeanModel: predicts the historical mean of each slot of the
//     week.
package forecast

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/linalg"
)

// Errors returned by the forecasting models.
var (
	ErrNotFitted   = errors.New("forecast: model not fitted")
	ErrBadTraining = errors.New("forecast: invalid training window")
	ErrBadHorizon  = errors.New("forecast: invalid horizon")
)

// Model is a per-tower traffic forecaster.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// Fit trains the model on a traffic vector covering trainDays whole
	// days at slotsPerDay slots per day.
	Fit(train linalg.Vector, trainDays, slotsPerDay int) error
	// StateSize returns the number of float64 values the fitted model
	// needs to keep per tower (the "cost" axis of the accuracy/state
	// trade-off).
	StateSize() int
	// period returns one period of the forecast: the prediction for
	// slot i after the training window is period()[i mod len]. It is
	// empty until a fit succeeds. Backtest scores the horizon from it
	// slot by slot, so a backtest builds no prediction vector.
	period() linalg.Vector
}

// predict returns a fitted model's forecast for the next horizon slots.
func predict(m Model, horizon int) (linalg.Vector, error) {
	p := m.period()
	if len(p) == 0 {
		return nil, ErrNotFitted
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadHorizon, horizon)
	}
	out := make(linalg.Vector, horizon)
	for i := range out {
		out[i] = p[i%len(p)]
	}
	return out, nil
}

// validateTraining checks the common training-window invariants.
func validateTraining(train linalg.Vector, trainDays, slotsPerDay int) error {
	if trainDays <= 0 || slotsPerDay <= 0 {
		return fmt.Errorf("%w: %d days × %d slots/day", ErrBadTraining, trainDays, slotsPerDay)
	}
	if len(train) != trainDays*slotsPerDay {
		return fmt.Errorf("%w: %d samples for %d days × %d slots/day", ErrBadTraining, len(train), trainDays, slotsPerDay)
	}
	if !train.IsFinite() {
		return fmt.Errorf("%w: training window contains non-finite values", ErrBadTraining)
	}
	return nil
}

// ComponentSet selects which spectral components a SpectralModel keeps.
type ComponentSet int

// Available component sets.
const (
	// Principal keeps the paper's three components: one week, one day,
	// half a day (6 numbers per tower).
	Principal ComponentSet = iota
	// Harmonics keeps the weekly component plus the first six daily
	// harmonics.
	Harmonics
	// HarmonicsAndSidebands additionally keeps the weekly sidebands of
	// each daily harmonic (k·day ± week), which encode the
	// weekday/weekend modulation of the daily shape.
	HarmonicsAndSidebands
)

// String implements fmt.Stringer.
func (c ComponentSet) String() string {
	switch c {
	case Principal:
		return "principal-3"
	case Harmonics:
		return "harmonics"
	case HarmonicsAndSidebands:
		return "harmonics+sidebands"
	default:
		return fmt.Sprintf("componentset(%d)", int(c))
	}
}

// maxHarmonics bounds the daily harmonics kept by the Harmonics and
// HarmonicsAndSidebands sets.
const maxHarmonics = 6

// SpectralModel forecasts by keeping a small set of DFT components of the
// training window and extending them periodically.
type SpectralModel struct {
	Components ComponentSet

	reconstructed linalg.Vector
	bins          []int
	trainSlots    int
}

// Name implements Model.
func (m *SpectralModel) Name() string { return "spectral-" + m.Components.String() }

// Fit implements Model. A model that is fitted again reuses its
// reconstruction and bin storage, so a caller sweeping a fleet of towers
// with one model value allocates only on the first fit of each window
// length. A refit that fails leaves the model unfitted.
func (m *SpectralModel) Fit(train linalg.Vector, trainDays, slotsPerDay int) error {
	m.trainSlots = 0
	if err := validateTraining(train, trainDays, slotsPerDay); err != nil {
		return err
	}
	week, day, half, err := dsp.PrincipalBins(len(train), trainDays)
	if err != nil {
		return fmt.Errorf("forecast: %w", err)
	}
	bins := m.bins[:0]
	switch m.Components {
	case Principal:
		bins = append(bins, week, day, half)
	case Harmonics:
		bins = append(bins, week)
		for h := 1; h <= maxHarmonics; h++ {
			bins = append(bins, h*day)
		}
	case HarmonicsAndSidebands:
		bins = dsp.HarmonicBins(bins, len(train), week, day, maxHarmonics)
	default:
		return fmt.Errorf("forecast: unknown component set %v", m.Components)
	}
	// Drop bins that fall outside the valid range for this window.
	valid := bins[:0]
	for _, b := range bins {
		if b > 0 && b < len(train) {
			valid = append(valid, b)
		}
	}
	m.bins = valid
	// The band-limited reconstruction runs on a pooled FFT plan: fitting a
	// fleet of per-tower models of one window length reuses a single set of
	// twiddle tables.
	plan, err := dsp.AcquirePlan(len(train))
	if err != nil {
		return fmt.Errorf("forecast: %w", err)
	}
	if cap(m.reconstructed) < len(train) {
		m.reconstructed = make(linalg.Vector, len(train))
	}
	m.reconstructed = m.reconstructed[:len(train)]
	err = plan.ReconstructInto(m.reconstructed, train, valid...)
	plan.Release()
	if err != nil {
		return fmt.Errorf("forecast: %w", err)
	}
	for i, v := range m.reconstructed {
		if v < 0 {
			m.reconstructed[i] = 0 // traffic cannot be negative
		}
	}
	m.trainSlots = len(train)
	return nil
}

// period implements Model. The retained components are periodic over the
// training window, so the forecast for slot trainSlots+i is the
// reconstruction, clamped at zero, at slot i (mod trainSlots).
func (m *SpectralModel) period() linalg.Vector { return m.reconstructed[:m.trainSlots] }

// Predict returns the forecast for the next horizon slots.
func (m *SpectralModel) Predict(horizon int) (linalg.Vector, error) { return predict(m, horizon) }

// StateSize implements Model: amplitude and phase per retained bin, plus the
// DC term.
func (m *SpectralModel) StateSize() int {
	if m.trainSlots == 0 {
		return 0
	}
	return 2*len(m.bins) + 1
}

// LastWeekModel replays the final week of the training window.
type LastWeekModel struct {
	lastWeek linalg.Vector
}

// Name implements Model.
func (m *LastWeekModel) Name() string { return "last-week-replay" }

// Fit implements Model.
func (m *LastWeekModel) Fit(train linalg.Vector, trainDays, slotsPerDay int) error {
	if err := validateTraining(train, trainDays, slotsPerDay); err != nil {
		return err
	}
	if trainDays < 7 {
		return fmt.Errorf("%w: last-week replay needs at least 7 days, got %d", ErrBadTraining, trainDays)
	}
	weekSlots := 7 * slotsPerDay
	m.lastWeek = train[len(train)-weekSlots:].Clone()
	return nil
}

// period implements Model.
func (m *LastWeekModel) period() linalg.Vector { return m.lastWeek }

// StateSize implements Model.
func (m *LastWeekModel) StateSize() int { return len(m.lastWeek) }

// SlotOfWeekMeanModel predicts the historical mean of each slot of the
// week, averaging over all training weeks.
type SlotOfWeekMeanModel struct {
	means linalg.Vector
}

// Name implements Model.
func (m *SlotOfWeekMeanModel) Name() string { return "slot-of-week-mean" }

// Fit implements Model.
func (m *SlotOfWeekMeanModel) Fit(train linalg.Vector, trainDays, slotsPerDay int) error {
	if err := validateTraining(train, trainDays, slotsPerDay); err != nil {
		return err
	}
	if trainDays < 7 {
		return fmt.Errorf("%w: slot-of-week mean needs at least 7 days, got %d", ErrBadTraining, trainDays)
	}
	weekSlots := 7 * slotsPerDay
	sums := make(linalg.Vector, weekSlots)
	counts := make([]int, weekSlots)
	for i, v := range train {
		sums[i%weekSlots] += v
		counts[i%weekSlots]++
	}
	for i := range sums {
		if counts[i] > 0 {
			sums[i] /= float64(counts[i])
		}
	}
	m.means = sums
	return nil
}

// period implements Model.
func (m *SlotOfWeekMeanModel) period() linalg.Vector { return m.means }

// StateSize implements Model.
func (m *SlotOfWeekMeanModel) StateSize() int { return len(m.means) }

// Metrics summarise forecast accuracy over a horizon.
//
// MAPE and NRMSE are only meaningful when the actual window carried
// traffic: a dead tower (all-zero actuals) yields MAPE == NRMSE == 0,
// which read as a perfect forecast if taken at face value. Check
// Evaluable (or Coverage) first — zero means "no evaluable traffic",
// not "perfect".
type Metrics struct {
	// MAPE is the mean absolute percentage error over the Evaluable slots
	// (actual traffic at least 10 % of the window mean). Zero when
	// Evaluable is zero.
	MAPE float64
	// RMSE is the root mean squared error over all slots.
	RMSE float64
	// NRMSE is RMSE divided by the mean of the actual traffic, or zero
	// when the window mean is zero (see Evaluable).
	NRMSE float64
	// Evaluable is the number of slots that entered the MAPE sum. Zero
	// means the window carried no evaluable traffic and the relative
	// errors above say nothing about forecast quality.
	Evaluable int
	// Coverage is Evaluable as a fraction of the window's slots.
	Coverage float64
}

// evaluate compares the actual traffic with a forecast that repeats
// period: slot i is predicted as period[i mod len(period)].
func evaluate(actual, period linalg.Vector) (Metrics, error) {
	if len(actual) == 0 {
		return Metrics{}, errors.New("forecast: empty evaluation window")
	}
	if len(period) == 0 {
		return Metrics{}, ErrNotFitted
	}
	mean := actual.Mean()
	threshold := mean * 0.1
	var mapeSum float64
	var mapeN int
	var sq float64
	for i := range actual {
		d := period[i%len(period)] - actual[i]
		sq += d * d
		if actual[i] > threshold && actual[i] > 0 {
			mapeSum += math.Abs(d) / actual[i]
			mapeN++
		}
	}
	m := Metrics{
		RMSE:      math.Sqrt(sq / float64(len(actual))),
		Evaluable: mapeN,
		Coverage:  float64(mapeN) / float64(len(actual)),
	}
	if mapeN > 0 {
		m.MAPE = mapeSum / float64(mapeN)
	}
	if mean > 0 {
		m.NRMSE = m.RMSE / mean
	}
	return m, nil
}

// Backtest fits the model on the first trainDays days of the series and
// evaluates its prediction of the remaining slots, slot by slot from the
// model's period, without building the prediction.
func Backtest(model Model, series linalg.Vector, totalDays, trainDays, slotsPerDay int) (Metrics, error) {
	if trainDays <= 0 || trainDays >= totalDays {
		return Metrics{}, fmt.Errorf("%w: train %d of %d days", ErrBadTraining, trainDays, totalDays)
	}
	if len(series) != totalDays*slotsPerDay {
		return Metrics{}, fmt.Errorf("%w: %d samples for %d days", ErrBadTraining, len(series), totalDays)
	}
	trainSlots := trainDays * slotsPerDay
	if err := model.Fit(series[:trainSlots], trainDays, slotsPerDay); err != nil {
		return Metrics{}, err
	}
	return evaluate(series[trainSlots:], model.period())
}
