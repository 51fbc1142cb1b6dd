// Land-use inference: the government use case from the paper's
// introduction. Given only the traffic of cellular towers (no POI data at
// inference time), infer the land use of city areas by clustering traffic
// patterns, labelling clusters with a small "survey" of POI data, and then
// mapping the labels back onto a spatial grid.
//
//	go run ./examples/landuse
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/synth"
	"repro/internal/urban"
)

func main() {
	log.SetFlags(0)

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
	type cellVote map[urban.Region]int
	votes := make([]cellVote, rows*cols)
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
			votes[idx] = make(cellVote)
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
		line := "  "
		for c := 0; c < cols; c++ {
			v := votes[r*cols+c]
			if len(v) == 0 {
				line += ". "
				continue
			}
			best, bestN := urban.Comprehensive, -1
			for region, n := range v {
				if n > bestN {
					best, bestN = region, n
				}
			}
			line += glyph[best] + " "
		}
		fmt.Println(line)
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
}
