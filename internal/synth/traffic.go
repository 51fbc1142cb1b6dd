package synth

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/panicsafe"
)

// TowerSeries is the ground-truth traffic time series of one tower: bytes
// carried per aggregation slot.
type TowerSeries struct {
	TowerID int
	// Bytes[i] is the traffic carried in slot i (cfg.SlotMinutes minutes
	// starting at cfg.Start + i·SlotMinutes).
	Bytes []float64
}

// GenerateSeries produces the ground-truth per-tower traffic series for
// every tower of the city at the configured slot granularity. The series
// are the "ideal" traffic before CDR log emission; aggregating the emitted
// logs reproduces them up to rounding.
//
// The shape of each tower's series is its ground-truth functional mixture
// evaluated on the diurnal archetypes, shifted by the tower's peak jitter,
// scaled by its amplitude and the city-wide byte anchor, and perturbed with
// multiplicative log-normal noise per slot.
//
// Towers are generated in parallel on all cores. Each tower draws from its
// own seeded stream (see GenerateTowerSeries), so the result is identical
// to generating the towers one by one in order, and a failure reports the
// lowest failing tower.
func (c *City) GenerateSeries() ([]TowerSeries, error) {
	out := make([]TowerSeries, len(c.Towers))
	err := c.generateAll(func(i int) []float64 {
		out[i] = TowerSeries{TowerID: c.Towers[i].ID, Bytes: make([]float64, c.Config.TotalSlots())}
		return out[i].Bytes
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GenerateTowerSeries produces the ground-truth traffic series of a single
// tower. Series generation is deterministic per (config seed, tower ID), so
// towers can be generated independently and in any order.
func (c *City) GenerateTowerSeries(towerIdx int) (TowerSeries, error) {
	if towerIdx < 0 || towerIdx >= len(c.Towers) {
		return TowerSeries{}, fmt.Errorf("synth: tower index %d out of range [0,%d)", towerIdx, len(c.Towers))
	}
	bytes := make([]float64, c.Config.TotalSlots())
	if err := c.generateInto(towerIdx, bytes); err != nil {
		return TowerSeries{}, err
	}
	return TowerSeries{TowerID: c.Towers[towerIdx].ID, Bytes: bytes}, nil
}

// generateAll generates every tower into the slice dst returns for it, on
// all cores; a failure reports the lowest failing tower.
func (c *City) generateAll(dst func(towerIdx int) []float64) error {
	return panicsafe.ForEach(context.Background(), len(c.Towers), 0, func(_, i int) error {
		return c.generateInto(i, dst(i))
	})
}

// generateInto writes the first len(dst)/SlotsPerDay whole days of the
// tower's series into dst. The tower's stream is drawn in slot order, so a
// shorter dst holds exactly a prefix of the full series.
func (c *City) generateInto(towerIdx int, dst []float64) error {
	cfg := c.Config
	t := c.Towers[towerIdx]
	// Independent deterministic stream per tower.
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(t.ID)*7919 + 17))

	perDay := cfg.SlotsPerDay()
	scale := cfg.MeanBytesPerSlotPeak * t.Amplitude
	// The mixture intensity of a slot depends only on its slot of day and
	// whether its day is a weekend, so it is evaluated once per tower into
	// a weekday row and a weekend row, already multiplied by scale. Each
	// slot then multiplies by its noise draw, so the product is rounded in
	// the order of intensity*scale*noise.
	level := make([]float64, 2*perDay)
	for i := range level {
		slotOfDay := i % perDay
		hour := (float64(slotOfDay)+0.5)*float64(cfg.SlotMinutes)/60 - t.peakShiftHours
		intensity, err := MixtureIntensity(t.Mix, hour, i >= perDay)
		if err != nil {
			return fmt.Errorf("synth: tower %d: %w", t.ID, err)
		}
		level[i] = intensity * scale
	}
	weekday, weekend := level[:perDay], level[perDay:]

	for day := range len(dst) / perDay {
		row := weekday
		if isWeekend(cfg.Start.AddDate(0, 0, day)) {
			row = weekend
		}
		out := dst[day*perDay : (day+1)*perDay]
		for i, base := range row {
			noise := math.Exp(rng.NormFloat64()*cfg.NoiseSigma - cfg.NoiseSigma*cfg.NoiseSigma/2)
			v := base * noise
			if v < 0 {
				v = 0
			}
			out[i] = math.Round(v)
		}
	}
	return nil
}

// isWeekend reports whether the date falls on Saturday or Sunday.
func isWeekend(t time.Time) bool {
	wd := t.Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

// SlotStart returns the start time of slot i.
func (c *City) SlotStart(i int) time.Time {
	return c.Config.Start.Add(time.Duration(i) * time.Duration(c.Config.SlotMinutes) * time.Minute)
}
