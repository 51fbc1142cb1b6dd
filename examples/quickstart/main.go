// Quickstart: generate a small synthetic city, run the full traffic-pattern
// analysis and print the five discovered patterns with their urban
// functional region labels.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)

	// 1. Generate a synthetic city: towers with ground-truth functional
	//    regions, POIs, and four weeks of traffic at 10-minute granularity.
	cfg := synth.SmallConfig()
	cfg.Towers = 300
	cfg.Days = 14
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		log.Fatalf("generating city: %v", err)
	}
	fmt.Printf("Generated %d towers and %d POIs across %s\n", len(city.Towers), len(city.POIs), "a Shanghai-like city frame")

	// 2. Vectorise the traffic (aggregation into 10-minute slots, trimming
	//    to whole weeks, z-score normalisation).
	dataset, err := city.BuildDataset()
	if err != nil {
		log.Fatalf("building dataset: %v", err)
	}
	fmt.Printf("Vectorised %d towers × %d slots (%d days)\n", dataset.NumTowers(), dataset.NumSlots(), dataset.Days)

	// 3. Run the model: hierarchical clustering + Davies-Bouldin metric
	//    tuner, POI labelling, time- and frequency-domain analysis.
	result, err := core.AnalyzeContext(context.Background(), dataset, city.POIs, core.Options{})
	if err != nil {
		log.Fatalf("analysing: %v", err)
	}
	fmt.Printf("\nThe Davies-Bouldin index selects %d traffic patterns:\n\n", result.OptimalK)
	for _, c := range result.Clusters {
		s := c.TimeSummary
		fmt.Printf("  pattern %d → %-13s  %5.1f%% of towers  peak %05.2fh  weekday/weekend ratio %.2f\n",
			c.Index+1, c.Region, 100*c.Share, s.Weekday.PeakHour, s.WeekdayWeekendRatio)
	}

	// 4. Validate against the generator's ground truth (something the paper
	//    could only do by manual inspection of maps).
	truth, err := city.GroundTruthRegions(dataset)
	if err != nil {
		log.Fatalf("ground truth: %v", err)
	}
	correct := 0
	for i, predicted := range result.TowerRegions {
		if predicted == truth[i] {
			correct++
		}
	}
	fmt.Printf("\nInferred functional region matches ground truth for %.1f%% of towers\n",
		100*float64(correct)/float64(len(truth)))
}
