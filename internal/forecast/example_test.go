package forecast_test

import (
	"fmt"
	"log"

	"repro/internal/forecast"
	"repro/internal/linalg"
	"repro/internal/synth"
	"repro/internal/urban"
)

// Traffic forecasting: the ISP use case from the paper's introduction. The
// frequency-domain model of Section 5 says most of a tower's traffic lives
// in a handful of spectral components, so a model that stores only those
// components can forecast future weeks with a tiny fraction of the state a
// replay-based model needs. This example backtests the forecasting models
// on every tower of a synthetic city: train on the first three weeks,
// predict the fourth.
func ExampleBacktest() {
	cfg := synth.SmallConfig()
	cfg.Towers = 200
	cfg.Days = 28
	cfg.Seed = 31
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		log.Fatalf("generating city: %v", err)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		log.Fatalf("generating series: %v", err)
	}

	trainDays := 21
	models := []func() forecast.Model{
		func() forecast.Model { return &forecast.SpectralModel{Components: forecast.Principal} },
		func() forecast.Model { return &forecast.SpectralModel{Components: forecast.HarmonicsAndSidebands} },
		func() forecast.Model { return &forecast.LastWeekModel{} },
		func() forecast.Model { return &forecast.SlotOfWeekMeanModel{} },
	}

	results := make(map[string]map[urban.Region]linalg.Vector) // per-tower MAPEs
	states := make(map[string]int)
	var names []string
	for _, mk := range models {
		name := mk().Name()
		names = append(names, name)
		results[name] = make(map[urban.Region]linalg.Vector)
	}

	for i, s := range series {
		region := city.Towers[i].Region
		for _, mk := range models {
			m := mk()
			metrics, err := forecast.Backtest(m, s.Bytes, cfg.Days, trainDays, cfg.SlotsPerDay())
			if err != nil {
				log.Fatalf("backtesting tower %d with %s: %v", i, m.Name(), err)
			}
			results[m.Name()][region] = append(results[m.Name()][region], metrics.MAPE)
			states[m.Name()] = m.StateSize()
		}
	}

	fmt.Printf("Median per-tower MAPE on the held-out fourth week (%d towers):\n\n", len(series))
	fmt.Printf("  %-13s", "region")
	for _, name := range names {
		fmt.Printf("  %24s", name)
	}
	fmt.Println()
	for _, region := range urban.Regions {
		fmt.Printf("  %-13s", region)
		for _, name := range names {
			mapes := results[name][region]
			if mapes == nil {
				fmt.Printf("  %24s", "-")
				continue
			}
			fmt.Printf("  %23.1f%%", 100*linalg.Quantile(mapes, 0.5))
		}
		fmt.Println()
	}

	fmt.Printf("\n  %-13s", "state/tower")
	for _, name := range names {
		fmt.Printf("  %24d", states[name])
	}
	fmt.Println()

	fmt.Println("\nThe paper's three principal components capture the broad shape with seven numbers per tower;")
	fmt.Println("adding the daily harmonics and their weekly sidebands recovers the sharp rush-hour humps and the")
	fmt.Println("weekday/weekend modulation, approaching the 1,008-number replay baseline with ~26x less state —")
	fmt.Println("the kind of compact per-tower model an ISP can afford when planning load balancing or pricing.")
	// Output:
	// Median per-tower MAPE on the held-out fourth week (200 towers):
	//
	//   region             spectral-principal-3  spectral-harmonics+sidebands          last-week-replay         slot-of-week-mean
	//   resident                          17.8%                      8.7%                     11.3%                      9.3%
	//   transport                         72.8%                     20.3%                     11.2%                      9.0%
	//   office                            40.7%                     14.9%                     11.3%                      9.2%
	//   entertainment                     38.2%                     15.9%                     11.4%                      9.3%
	//   comprehensive                     17.5%                      9.8%                     11.3%                      9.2%
	//
	//   state/tower                           7                        39                      1008                      1008
	//
	// The paper's three principal components capture the broad shape with seven numbers per tower;
	// adding the daily harmonics and their weekly sidebands recovers the sharp rush-hour humps and the
	// weekday/weekend modulation, approaching the 1,008-number replay baseline with ~26x less state —
	// the kind of compact per-tower model an ISP can afford when planning load balancing or pricing.
}
