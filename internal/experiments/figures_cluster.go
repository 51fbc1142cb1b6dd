package experiments

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/label"
	"repro/internal/linalg"
	"repro/internal/poi"
	"repro/internal/report"
	"repro/internal/urban"
)

// Figure6 regenerates the pattern-identifier outputs: the Davies–Bouldin
// curve of the metric tuner (6a), the CDF of member-to-centroid distances
// (6b) and the five time-domain patterns themselves (6c–g).
func Figure6(env *Env) (*Output, error) {
	res := env.Result
	ds := env.Dataset

	// (a) DBI sweep. Recompute over 2..10 clusters (the environment forces
	// K=5 for the other experiments; the sweep here shows why 5 wins).
	maxK := 10
	if maxK > ds.NumTowers() {
		maxK = ds.NumTowers()
	}
	norm, err := linalg.RowsMatrix(ds.Normalized)
	if err != nil {
		return nil, err
	}
	bestK, curve, err := cluster.OptimalKMatCtx(context.Background(), norm, res.Dendrogram, 2, maxK, 0)
	if err != nil {
		return nil, err
	}
	dbiFig := &report.Figure{Title: "Figure 6a: Davies-Bouldin index vs cluster count", XLabel: "clusters", YLabel: "DBI"}
	xs := make([]float64, len(curve))
	ys := make([]float64, len(curve))
	ths := make([]float64, len(curve))
	for i, p := range curve {
		xs[i] = float64(p.K)
		ys[i] = p.DBI
		ths[i] = p.Threshold
	}
	if err := dbiFig.AddSeries("dbi", xs, ys); err != nil {
		return nil, err
	}
	if err := dbiFig.AddSeries("cut-threshold", xs, ths); err != nil {
		return nil, err
	}

	// (b) CDF of distances to centroid per cluster.
	dists, err := cluster.DistancesToCentroid(norm, res.Assignment)
	if err != nil {
		return nil, err
	}
	cdfFig := &report.Figure{Title: "Figure 6b: CDF of member distance to cluster centroid", XLabel: "distance", YLabel: "CDF"}
	var allMax float64
	for _, d := range dists {
		if len(d) > 0 && d[len(d)-1] > allMax {
			allMax = d[len(d)-1]
		}
	}
	probes := make([]float64, 41)
	for i := range probes {
		probes[i] = allMax * float64(i) / 40
	}
	views := regionOrder(res)
	for _, view := range views {
		cdf := linalg.CDF(dists[view.Index], probes)
		if err := cdfFig.AddSeries(view.Region.String(), probes, cdf); err != nil {
			return nil, err
		}
	}

	// (c–g) The five patterns: weekday daily profile of each cluster's
	// centroid (normalised traffic).
	patFig := &report.Figure{Title: "Figure 6c-g: the five time-domain patterns (centroid daily profiles)", XLabel: "hour", YLabel: "normalised traffic"}
	x := hoursAxis(ds.SlotsPerDay(), ds.SlotMinutes)
	for _, view := range views {
		weekday, _, err := foldVector(env, view.Centroid)
		if err != nil {
			return nil, err
		}
		if err := patFig.AddSeries(view.Region.String(), x, weekday); err != nil {
			return nil, err
		}
	}

	// The paper puts 80 % of the members within distance 10 of their centroid.
	var all linalg.Vector
	for _, d := range dists {
		all = append(all, d...)
	}
	share := linalg.CDF(all, []float64{10})[0]
	notes := []string{
		fmt.Sprintf("Davies-Bouldin index minimised at K=%d (paper: five basic patterns)", bestK),
		fmt.Sprintf("%.1f%% of members lie within distance 10 of their cluster centroid (paper: 80%%): %s",
			100*share, verdict(share >= 0.8)),
	}
	return &Output{
		Name:        "fig6",
		Description: "DBI variation, distance CDF and the five patterns",
		Figures:     []*report.Figure{dbiFig, cdfFig, patFig},
		Notes:       notes,
	}, nil
}

// foldVector folds a per-slot vector into weekday and weekend daily
// profiles using the environment clock.
func foldVector(env *Env, v linalg.Vector) (weekday, weekend linalg.Vector, err error) {
	wd, we, err := foldProfiles(env, v)
	if err != nil {
		return nil, nil, err
	}
	return wd.Values, we.Values, nil
}

// Table1 regenerates the percentage of towers per cluster (Table 1) and
// compares the recovered shares against both the generator's ground truth
// and the paper's reported shares.
func Table1(env *Env) (*Output, error) {
	res := env.Result
	paper := urban.DefaultShares()
	truthCounts := make(map[urban.Region]int)
	for _, r := range env.Truth {
		truthCounts[r]++
	}
	tbl := &report.Table{
		Title:   "Table 1: percentage of cell towers per cluster",
		Headers: []string{"cluster", "functional region", "towers", "share", "ground-truth share", "paper share"},
	}
	views := regionOrder(res)
	for i, view := range views {
		truthShare := float64(truthCounts[view.Region]) / float64(len(env.Truth))
		tbl.AddRow(i+1, view.Region.String(), len(view.Members), view.Share, truthShare, paper[view.Region])
	}
	bySize := func(a, b core.ClusterView) int { return cmp.Compare(len(a.Members), len(b.Members)) }
	largest, smallest := slices.MaxFunc(views, bySize), slices.MinFunc(views, bySize)
	// Headline check: label accuracy against ground truth.
	overall, perRegion, err := label.Accuracy(res.TowerRegions, env.Truth)
	if err != nil {
		return nil, err
	}
	notes := []string{
		fmt.Sprintf("tower-level region recovery accuracy = %.1f%% (office recall %.1f%%, resident recall %.1f%%)",
			100*overall, 100*perRegion[urban.Office], 100*perRegion[urban.Resident]),
		fmt.Sprintf("%v is the largest cluster and %v the smallest (paper Table 1: office the largest, transport the smallest): %s",
			largest.Region, smallest.Region, verdict(largest.Region == urban.Office && smallest.Region == urban.Transport)),
	}
	return &Output{Name: "table1", Description: "cluster shares", Tables: []*report.Table{tbl}, Notes: notes}, nil
}

// clusterDensityGrid rasterises the tower positions of one cluster.
func clusterDensityGrid(env *Env, members []int, rows, cols int) (*geo.Grid, error) {
	grid, err := geo.NewGrid(env.City.Box, rows, cols)
	if err != nil {
		return nil, err
	}
	for _, row := range members {
		grid.Add(env.Dataset.Locations[row], 1)
	}
	return grid, nil
}

// Figure7 regenerates the geographic distribution of each cluster's towers
// (Figure 7) as a density grid summary: the densest location per cluster.
func Figure7(env *Env) (*Output, error) {
	const rows, cols = 24, 24
	tbl := &report.Table{
		Title:   "Figure 7: geographic density of each cluster",
		Headers: []string{"cluster region", "towers", "densest cell lat", "densest cell lon", "towers in densest cell", "share of cluster in top 5 cells"},
	}
	fig := &report.Figure{Title: "Figure 7: tower count by grid cell per cluster", XLabel: "cell index", YLabel: "towers"}
	// The least concentrated single-function cluster and the most
	// concentrated comprehensive one, by the share of their top 5 cells.
	single, comprehensive := math.Inf(1), math.Inf(-1)
	for _, view := range regionOrder(env.Result) {
		grid, err := clusterDensityGrid(env, view.Members, rows, cols)
		if err != nil {
			return nil, err
		}
		r, c, maxVal := grid.MaxCell()
		center := grid.CellCenter(r, c)
		top5 := topCellShare(grid, 5)
		tbl.AddRow(view.Region.String(), len(view.Members), center.Lat, center.Lon, maxVal, top5)
		if view.Region == urban.Comprehensive {
			comprehensive = max(comprehensive, top5)
		} else {
			single = min(single, top5)
		}
		x := make([]float64, len(grid.Cells))
		for i := range x {
			x[i] = float64(i)
		}
		if err := fig.AddSeries(view.Region.String(), x, append([]float64(nil), grid.Cells...)); err != nil {
			return nil, err
		}
	}
	const paper = "(paper Figure 7: single-function clusters form hot spots, the comprehensive cluster spreads across the city)"
	note := "no comprehensive and single-function clusters to compare " + paper
	if !math.IsInf(single, 0) && !math.IsInf(comprehensive, 0) {
		note = fmt.Sprintf("the top 5 cells hold at least %.0f%% of every single-function cluster and %.0f%% of the comprehensive one %s: %s",
			100*single, 100*comprehensive, paper, verdict(single > comprehensive))
	}
	notes := []string{note}
	return &Output{Name: "fig7", Description: "cluster geography", Tables: []*report.Table{tbl}, Figures: []*report.Figure{fig}, Notes: notes}, nil
}

// verdict words a note's comparison of a measurement with the paper.
func verdict(matches bool) string {
	if matches {
		return "matches"
	}
	return "does not match"
}

func topCellShare(grid *geo.Grid, n int) float64 {
	total := grid.Total()
	if total == 0 {
		return 0
	}
	cells := append([]float64(nil), grid.Cells...)
	// partial selection is unnecessary at this size; sort descending.
	for i := 0; i < n && i < len(cells); i++ {
		maxIdx := i
		for j := i + 1; j < len(cells); j++ {
			if cells[j] > cells[maxIdx] {
				maxIdx = j
			}
		}
		cells[i], cells[maxIdx] = cells[maxIdx], cells[i]
	}
	var top float64
	for i := 0; i < n && i < len(cells); i++ {
		top += cells[i]
	}
	return top / total
}

// Table2 regenerates the POI distribution at each cluster's densest point
// (Table 2 of the paper).
func Table2(env *Env) (*Output, error) {
	const rows, cols = 24, 24
	counter, err := poi.NewCounter(env.City.POIs, poi.DefaultRadiusMeters)
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   "Table 2: POI distribution at each cluster's densest point (200 m radius)",
		Headers: []string{"point", "cluster region", "resident", "transport", "office", "entertainment", "dominant type"},
	}
	labels := []string{"A", "B", "C", "D", "E"}
	matches := 0
	total := 0
	for i, view := range regionOrder(env.Result) {
		grid, err := clusterDensityGrid(env, view.Members, rows, cols)
		if err != nil {
			return nil, err
		}
		r, c, _ := grid.MaxCell()
		center := grid.CellCenter(r, c)
		counts := counter.CountWithin(center, poi.DefaultRadiusMeters)
		dominant, _ := poi.DominantType(counts)
		name := "?"
		if i < len(labels) {
			name = labels[i]
		}
		tbl.AddRow(name, view.Region.String(), counts[poi.Resident], counts[poi.Transport], counts[poi.Office], counts[poi.Entertainment], dominant.String())
		if view.Region != urban.Comprehensive {
			total++
			if dominant.String() == view.Region.String() {
				matches++
			}
		}
	}
	notes := []string{
		fmt.Sprintf("dominant POI type at the densest point matches the cluster label for %d of %d single-function clusters (paper: each densest point sits in the matching functional area)", matches, total),
	}
	return &Output{Name: "table2", Description: "POI at densest points", Tables: []*report.Table{tbl}, Notes: notes}, nil
}

// Figure8 regenerates the case-study validation (Figure 8): pick two city
// areas and check that the tower labels match the ground-truth functional
// regions there.
func Figure8(env *Env) (*Output, error) {
	// Two areas: a disc around the business core and one around a
	// residential periphery zone.
	areas := []struct {
		name   string
		center geo.Point
		radius float64 // metres
	}{
		{"area A (business core)", geo.Point{Lat: 31.235, Lon: 121.500}, 2500},
		{"area B (residential periphery)", geo.Point{Lat: 31.330, Lon: 121.370}, 3500},
	}
	tbl := &report.Table{
		Title:   "Figure 8: case-study validation of labels",
		Headers: []string{"area", "towers", "label matches ground truth", "accuracy"},
	}
	var accuracies []float64
	for _, area := range areas {
		var total, match int
		for row := 0; row < env.Dataset.NumTowers(); row++ {
			if geo.DistanceMeters(area.center, env.Dataset.Locations[row]) > area.radius {
				continue
			}
			total++
			if env.Result.TowerRegions[row] == env.Truth[row] {
				match++
			}
		}
		acc := 0.0
		if total > 0 {
			acc = float64(match) / float64(total)
		}
		accuracies = append(accuracies, acc)
		tbl.AddRow(area.name, total, match, acc)
	}
	notes := []string{
		fmt.Sprintf("case-study label accuracy: %.0f%% and %.0f%% (paper: labels exactly match the functional regions in both case-study areas)", 100*accuracies[0], 100*accuracies[1]),
	}
	return &Output{Name: "fig8", Description: "case studies", Tables: []*report.Table{tbl}, Notes: notes}, nil
}

// Table3 regenerates the averaged min-max-normalised POI of the five
// clusters (Table 3 of the paper).
func Table3(env *Env) (*Output, error) {
	tbl := &report.Table{
		Title:   "Table 3: averaged normalised POI of the five clusters",
		Headers: []string{"cluster region", "resident", "transport", "office", "entertainment", "dominant type"},
	}
	diagonalOK := 0
	for _, view := range regionOrder(env.Result) {
		row := view.AveragedPOI
		dominant, _ := poi.DominantType(row)
		tbl.AddRow(view.Region.String(), row[poi.Resident], row[poi.Transport], row[poi.Office], row[poi.Entertainment], dominant.String())
		if view.Region.String() == dominant.String() {
			diagonalOK++
		}
	}
	notes := []string{
		fmt.Sprintf("the dominant POI type matches the cluster's own functional region for %d clusters (paper Table 3: the diagonal dominates)", diagonalOK),
	}
	return &Output{Name: "table3", Description: "averaged normalised POI", Tables: []*report.Table{tbl}, Notes: notes}, nil
}

// Figure9 regenerates the per-cluster POI share pie chart (Figure 9).
func Figure9(env *Env) (*Output, error) {
	views := regionOrder(env.Result)
	rows := make([]poi.Counts, len(views))
	for i, view := range views {
		rows[i] = view.AveragedPOI
	}
	shares := poi.RowShares(rows)
	tbl := &report.Table{
		Title:   "Figure 9: POI share of each cluster",
		Headers: []string{"cluster region", "resident %", "transport %", "office %", "entertainment %"},
	}
	var transportShare, entertainShare float64
	for i, view := range views {
		tbl.AddRow(view.Region.String(),
			100*shares[i][poi.Resident], 100*shares[i][poi.Transport],
			100*shares[i][poi.Office], 100*shares[i][poi.Entertainment])
		if view.Region == urban.Transport {
			transportShare = shares[i][poi.Transport]
		}
		if view.Region == urban.Entertainment {
			entertainShare = shares[i][poi.Entertainment]
		}
	}
	notes := []string{
		fmt.Sprintf("transport POIs make up %.0f%% of the transport cluster's share and entertainment POIs %.0f%% of the entertainment cluster's (paper: 44%% and 39%%)",
			100*transportShare, 100*entertainShare),
	}
	return &Output{Name: "fig9", Description: "POI shares", Tables: []*report.Table{tbl}, Notes: notes}, nil
}
