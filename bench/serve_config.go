package main

import (
	"time"

	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/window"
)

const windowDays = 14

// newServiceWindow builds the sliding window the way cmd/served's run()
// does: 14 days, the city's slot grid and tower locations, and the
// default guards (24 h clock skew, quarantine beyond 8 robust z-scores).
func newServiceWindow(city *synth.City) (*window.Window, error) {
	w, err := window.New(window.Options{
		Start:       city.Config.Start,
		SlotMinutes: city.Config.SlotMinutes,
		Days:        windowDays,
	})
	if err != nil {
		return nil, err
	}
	w.SetLocations(city.TowerInfos())
	w.SetGuards(window.Guards{
		MaxFutureSkew: 24 * time.Hour,
		Quarantine:    window.QuarantineOptions{ZThreshold: 8},
	})
	return w, nil
}

// serviceConfig mirrors the serve.Config cmd/served assembles from its
// flag defaults — admission gate 0.5/0/0.5/0.5, four model generations,
// float64, NMF off — except that the remodel ticker is slowed to an hour
// so the harness, not a timer, decides when cycles run.
func serviceConfig(city *synth.City, w *window.Window, source trace.Source) serve.Config {
	return serve.Config{
		Window:          w,
		Source:          source,
		POIs:            city.POIs,
		RemodelInterval: time.Hour,
		Admission: serve.AdmitConfig{
			MinCoverage:        0.5,
			MaxValidityDrift:   0.5,
			MaxBacktestRegress: 0.5,
		},
		ModelHistory: 4,
	}
}
