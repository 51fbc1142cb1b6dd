// Component decomposition: the Section 5.3 use case. Pick towers from
// comprehensive (mixed-function) areas and express each one as a convex
// combination of the four primary components — the most representative
// resident, transport, office and entertainment towers — then compare the
// coefficients with the POI mix (NTF-IDF) around the tower and with the
// generator's ground-truth functional mixture.
//
//	go run ./examples/decompose
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/poi"
	"repro/internal/synth"
	"repro/internal/urban"
)

func main() {
	log.SetFlags(0)

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
	fmt.Printf("Decomposing %d comprehensive-area towers into the four primary components\n", min(6, len(comp.Members)))
	fmt.Printf("%-10s  %-42s  %-42s\n", "tower", "coefficients (res/tra/off/ent)", "ground-truth mixture (res/tra/off/ent)")

	truthByID := make(map[int][4]float64, len(city.Towers))
	for _, t := range city.Towers {
		truthByID[t.ID] = t.Mix
	}

	shown := 0
	for _, row := range comp.Members {
		if shown >= 6 {
			break
		}
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
		shown++
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
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
