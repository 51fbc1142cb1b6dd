package core_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/poi"
	"repro/internal/synth"
	"repro/internal/urban"
)

// Quickstart: generate a small synthetic city, run the full traffic-pattern
// analysis and print the five discovered patterns with their urban
// functional region labels.
func ExampleAnalyzeContext() {
	// 1. Generate a synthetic city: towers with ground-truth functional
	//    regions, POIs, and two weeks of traffic at 10-minute granularity.
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
	// Output:
	// Generated 300 towers and 30086 POIs across a Shanghai-like city frame
	// Vectorised 300 towers × 2016 slots (14 days)
	//
	// The Davies-Bouldin index selects 5 traffic patterns:
	//
	//   pattern 1 → resident        17.7% of towers  peak 21.42h  weekday/weekend ratio 0.96
	//   pattern 2 → transport        2.7% of towers  peak 08.08h  weekday/weekend ratio 1.46
	//   pattern 3 → office          45.7% of towers  peak 11.75h  weekday/weekend ratio 1.75
	//   pattern 4 → entertainment    9.3% of towers  peak 18.92h  weekday/weekend ratio 1.01
	//   pattern 5 → comprehensive   24.7% of towers  peak 19.25h  weekday/weekend ratio 1.20
	//
	// Inferred functional region matches ground truth for 100.0% of towers
}

// Land-use inference: the government use case from the paper's
// introduction. Given only the traffic of cellular towers (no POI data at
// inference time), infer the land use of city areas by clustering traffic
// patterns, labelling clusters with a small "survey" of POI data, and then
// mapping the labels back onto a spatial grid.
func ExampleAnalyzeContext_landuse() {
	cfg := synth.SmallConfig()
	cfg.Towers = 400
	cfg.Days = 14
	cfg.Seed = 23
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		log.Fatalf("generating city: %v", err)
	}
	dataset, err := city.BuildDataset()
	if err != nil {
		log.Fatalf("building dataset: %v", err)
	}
	result, err := core.AnalyzeContext(context.Background(), dataset, city.POIs, core.Options{ForceK: 5})
	if err != nil {
		log.Fatalf("analysing: %v", err)
	}

	// Rasterise the inferred land use: each grid cell takes the most common
	// label among the towers it contains.
	const rows, cols = 12, 12
	votes := make([]map[urban.Region]int, rows*cols)
	grid, err := geo.NewGrid(city.Box, rows, cols)
	if err != nil {
		log.Fatalf("grid: %v", err)
	}
	for i := 0; i < dataset.NumTowers(); i++ {
		r, c, ok := grid.CellIndex(dataset.Locations[i])
		if !ok {
			continue
		}
		idx := r*cols + c
		if votes[idx] == nil {
			votes[idx] = make(map[urban.Region]int)
		}
		votes[idx][result.TowerRegions[i]]++
	}

	glyph := map[urban.Region]string{
		urban.Resident:      "r",
		urban.Transport:     "t",
		urban.Office:        "O",
		urban.Entertainment: "e",
		urban.Comprehensive: "c",
	}
	fmt.Println("Inferred land-use map (north at the top; '.' = no towers):")
	for r := rows - 1; r >= 0; r-- {
		cells := make([]string, cols)
		for c := range cells {
			v := votes[r*cols+c]
			if len(v) == 0 {
				cells[c] = "."
				continue
			}
			// The first region in canonical order wins a tie.
			best, bestN := urban.Comprehensive, -1
			for _, region := range urban.Regions {
				if v[region] > bestN {
					best, bestN = region, v[region]
				}
			}
			cells[c] = glyph[best]
		}
		fmt.Println("  " + strings.Join(cells, " "))
	}
	fmt.Println("\nLegend: O office  r resident  t transport  e entertainment  c comprehensive")

	// Quantify the inference against the generator's ground truth.
	truth, err := city.GroundTruthRegions(dataset)
	if err != nil {
		log.Fatalf("ground truth: %v", err)
	}
	perRegion := make(map[urban.Region][2]int) // correct, total
	for i := range truth {
		entry := perRegion[truth[i]]
		entry[1]++
		if result.TowerRegions[i] == truth[i] {
			entry[0]++
		}
		perRegion[truth[i]] = entry
	}
	fmt.Println("\nPer-region recall of the land-use inference:")
	for _, region := range urban.Regions {
		entry := perRegion[region]
		if entry[1] == 0 {
			continue
		}
		fmt.Printf("  %-13s %3d towers  recall %.0f%%\n", region, entry[1], 100*float64(entry[0])/float64(entry[1]))
	}
	// Output:
	// Inferred land-use map (north at the top; '.' = no towers):
	//   . . . . . . . . . . . .
	//   . . . r . t . r r . . .
	//   . . r . . . . r r r r .
	//   . . r r r c e r r r r r
	//   . . r r c O e c r r . r
	//   . . . . O O c c . . r .
	//   . . t c O O O O O . . .
	//   . . . c c c c O e e . .
	//   . . . r c c . . e e . .
	//   . . . r r . . r r r . .
	//   . . r r r . . . . . . .
	//   . . . r r . . . r r . .
	//
	// Legend: O office  r resident  t transport  e entertainment  c comprehensive
	//
	// Per-region recall of the land-use inference:
	//   resident       70 towers  recall 100%
	//   transport      10 towers  recall 100%
	//   office        183 towers  recall 100%
	//   entertainment  38 towers  recall 100%
	//   comprehensive  99 towers  recall 100%
}

// Component decomposition: the Section 5.3 use case. Pick towers from
// comprehensive (mixed-function) areas and express each one as a convex
// combination of the four primary components — the most representative
// resident, transport, office and entertainment towers — then compare the
// coefficients with the POI mix (NTF-IDF) around the tower and with the
// generator's ground-truth functional mixture.
func ExampleResult_DecomposeTower() {
	cfg := synth.SmallConfig()
	cfg.Towers = 300
	cfg.Days = 14
	cfg.Seed = 47
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		log.Fatalf("generating city: %v", err)
	}
	dataset, err := city.BuildDataset()
	if err != nil {
		log.Fatalf("building dataset: %v", err)
	}
	result, err := core.AnalyzeContext(context.Background(), dataset, city.POIs, core.Options{ForceK: 5})
	if err != nil {
		log.Fatalf("analysing: %v", err)
	}

	comp, err := result.ClusterByRegion(urban.Comprehensive)
	if err != nil {
		log.Fatalf("no comprehensive cluster: %v", err)
	}
	shown := comp.Members[:min(6, len(comp.Members))]
	fmt.Printf("Decomposing %d comprehensive-area towers into the four primary components\n", len(shown))
	fmt.Printf("%-10s  %-42s  %s\n", "tower", "coefficients (res/tra/off/ent)", "ground-truth mixture (res/tra/off/ent)")

	truthByID := make(map[int][4]float64, len(city.Towers))
	for _, t := range city.Towers {
		truthByID[t.ID] = t.Mix
	}

	for _, row := range shown {
		dec, ntf, err := result.DecomposeTower(row)
		if err != nil {
			log.Fatalf("decomposing row %d: %v", row, err)
		}
		truth := truthByID[dataset.TowerIDs[row]]
		fmt.Printf("row %-6d  [%.2f %.2f %.2f %.2f] residual %.3f      [%.2f %.2f %.2f %.2f]\n",
			row,
			dec.Coefficients[0], dec.Coefficients[1], dec.Coefficients[2], dec.Coefficients[3], dec.Residual,
			truth[0], truth[1], truth[2], truth[3])
		fmt.Printf("            NTF-IDF of nearby POI: res %.2f  tra %.2f  off %.2f  ent %.2f\n",
			ntf[poi.Resident], ntf[poi.Transport], ntf[poi.Office], ntf[poi.Entertainment])
	}

	fmt.Println("\nSingle-function sanity check — each primary representative decomposes onto itself:")
	primaries, err := result.PrimaryComponents()
	if err != nil {
		log.Fatalf("primary components: %v", err)
	}
	for i, region := range urban.PrimaryRegions {
		dec, _, err := result.DecomposeTower(primaries[i].Index)
		if err != nil {
			log.Fatalf("decomposing primary %v: %v", region, err)
		}
		fmt.Printf("  %-13s coefficient on own component: %.2f\n", region, dec.Coefficients[i])
	}
	// Output:
	// Decomposing 6 comprehensive-area towers into the four primary components
	// tower       coefficients (res/tra/off/ent)              ground-truth mixture (res/tra/off/ent)
	// row 226     [0.22 0.00 0.50 0.28] residual 0.024      [0.33 0.11 0.28 0.28]
	//             NTF-IDF of nearby POI: res 1.00  tra 0.00  off 0.00  ent 0.00
	// row 227     [0.40 0.00 0.60 0.00] residual 0.027      [0.41 0.07 0.31 0.21]
	//             NTF-IDF of nearby POI: res 0.60  tra 0.00  off 0.40  ent 0.00
	// row 228     [0.40 0.02 0.58 0.00] residual 0.029      [0.44 0.08 0.34 0.14]
	//             NTF-IDF of nearby POI: res 0.35  tra 0.00  off 0.25  ent 0.40
	// row 229     [0.27 0.00 0.60 0.13] residual 0.020      [0.35 0.11 0.37 0.17]
	//             NTF-IDF of nearby POI: res 0.00  tra 0.00  off 1.00  ent 0.00
	// row 230     [0.20 0.00 0.47 0.33] residual 0.022      [0.31 0.15 0.29 0.25]
	//             NTF-IDF of nearby POI: res 1.00  tra 0.00  off 0.00  ent 0.00
	// row 231     [0.31 0.00 0.52 0.17] residual 0.027      [0.37 0.11 0.27 0.25]
	//             NTF-IDF of nearby POI: res 0.42  tra 0.00  off 0.00  ent 0.58
	//
	// Single-function sanity check — each primary representative decomposes onto itself:
	//   resident      coefficient on own component: 1.00
	//   transport     coefficient on own component: 1.00
	//   office        coefficient on own component: 1.00
	//   entertainment coefficient on own component: 1.00
}
