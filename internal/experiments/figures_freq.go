package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/dsp"
	"repro/internal/freqdomain"
	"repro/internal/linalg"
	"repro/internal/poi"
	"repro/internal/report"
	"repro/internal/urban"
)

// principalBins returns the week/day/half-day bins of the environment's
// dataset.
func principalBins(env *Env) (week, day, half int, err error) {
	return dsp.PrincipalBins(env.Dataset.NumSlots(), env.Dataset.Days)
}

// Figure12 regenerates the DFT of the aggregate traffic and its
// reconstruction from the three principal components (Figure 12).
func Figure12(env *Env) (*Output, error) {
	ds := env.Dataset
	week, day, half, err := principalBins(env)
	if err != nil {
		return nil, err
	}
	agg, err := ds.AggregateRaw(nil)
	if err != nil {
		return nil, err
	}
	spec, err := env.Plan.Spectrum(agg)
	if err != nil {
		return nil, err
	}
	maxBin := 100
	if maxBin > ds.NumSlots()/2 {
		maxBin = ds.NumSlots() / 2
	}
	amps := spec.Amplitudes()[:maxBin]
	bins := make([]float64, maxBin)
	for i := range bins {
		bins[i] = float64(i)
	}
	specFig := &report.Figure{Title: "Figure 12a: DFT of the aggregate traffic", XLabel: "frequency bin", YLabel: "|X[k]|"}
	if err := specFig.AddSeries("amplitude", bins, amps); err != nil {
		return nil, err
	}

	reconstructed, loss, err := env.Plan.Reconstruct(agg, week, day, half)
	if err != nil {
		return nil, err
	}
	recFig := &report.Figure{Title: "Figure 12b: original vs reconstructed aggregate traffic (first week)", XLabel: "day", YLabel: "bytes per slot"}
	weekSlots := 7 * ds.SlotsPerDay()
	x := weekTimeAxis(weekSlots, ds.SlotMinutes, ds.Start)
	if err := recFig.AddSeries("original", x, agg[:weekSlots]); err != nil {
		return nil, err
	}
	if err := recFig.AddSeries("reconstructed", x, reconstructed[:weekSlots]); err != nil {
		return nil, err
	}

	// Which bins dominate the spectrum (excluding DC)?
	type binAmp struct {
		bin int
		amp float64
	}
	var ranked []binAmp
	for k := 1; k < maxBin; k++ {
		ranked = append(ranked, binAmp{k, amps[k]})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].amp > ranked[j].amp })
	top := ranked
	if len(top) > 3 {
		top = top[:3]
	}
	topBins := make([]int, len(top))
	for i, b := range top {
		topBins[i] = b.bin
	}
	notes := []string{
		fmt.Sprintf("three dominant non-DC bins: %v (expected %d=week, %d=day, %d=half-day)", topBins, week, day, half),
		fmt.Sprintf("energy lost by keeping only the three principal components: %.2f%% (paper: < 6%%)", 100*loss),
	}
	return &Output{Name: "fig12", Description: "aggregate DFT and reconstruction", Figures: []*report.Figure{specFig, recFig}, Notes: notes}, nil
}

// Figure13 regenerates the variance of the spectrum amplitude across towers
// (Figure 13).
func Figure13(env *Env) (*Output, error) {
	ds := env.Dataset
	week, day, half, err := principalBins(env)
	if err != nil {
		return nil, err
	}
	maxBin := 100
	if maxBin > ds.NumSlots()/2 {
		maxBin = ds.NumSlots() / 2
	}
	variance, err := freqdomain.AmplitudeVariancePlan(context.Background(), env.Plan, ds.Normalized, maxBin)
	if err != nil {
		return nil, err
	}
	bins := make([]float64, maxBin)
	for i := range bins {
		bins[i] = float64(i)
	}
	fig := &report.Figure{Title: "Figure 13: variance of normalised DFT amplitude across towers", XLabel: "frequency bin", YLabel: "variance"}
	if err := fig.AddSeries("variance", bins, variance); err != nil {
		return nil, err
	}
	// Rank bins by variance (excluding DC).
	type binVar struct {
		bin int
		v   float64
	}
	var ranked []binVar
	for k := 1; k < maxBin; k++ {
		ranked = append(ranked, binVar{k, variance[k]})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].v > ranked[j].v })
	topBins := []int{}
	for i := 0; i < 3 && i < len(ranked); i++ {
		topBins = append(topBins, ranked[i].bin)
	}
	notes := []string{
		fmt.Sprintf("bins with the largest cross-tower amplitude variance: %v (expected the principal bins %d, %d, %d)", topBins, day, half, week),
	}
	return &Output{Name: "fig13", Description: "spectrum variance", Figures: []*report.Figure{fig}, Notes: notes}, nil
}

// Figure14 regenerates the reconstructed traffic of the four primary
// patterns (Figure 14).
func Figure14(env *Env) (*Output, error) {
	ds := env.Dataset
	week, day, half, err := principalBins(env)
	if err != nil {
		return nil, err
	}
	fig := &report.Figure{Title: "Figure 14: primary patterns reconstructed from the three principal components (first week)", XLabel: "day", YLabel: "normalised traffic"}
	weekSlots := 7 * ds.SlotsPerDay()
	x := weekTimeAxis(weekSlots, ds.SlotMinutes, ds.Start)
	tbl := &report.Table{
		Title:   "Figure 14: reconstruction fidelity per primary pattern",
		Headers: []string{"region", "energy loss", "correlation original vs reconstructed"},
	}
	var worstCorr = 1.0
	for _, region := range urban.PrimaryRegions {
		view, err := env.Result.ClusterByRegion(region)
		if err != nil {
			return nil, err
		}
		agg := view.AggregateRaw
		reconstructed, loss, err := env.Plan.Reconstruct(agg, week, day, half)
		if err != nil {
			return nil, err
		}
		corr, err := linalg.Pearson(agg, reconstructed)
		if err != nil {
			return nil, err
		}
		if corr < worstCorr {
			worstCorr = corr
		}
		tbl.AddRow(region.String(), loss, corr)
		if err := fig.AddSeries(region.String(), x, linalg.NormalizeByMax(reconstructed[:weekSlots])); err != nil {
			return nil, err
		}
	}
	notes := []string{
		fmt.Sprintf("worst-case correlation between a primary pattern and its 3-component reconstruction: %.3f (paper: reconstructed curves very close to the originals)", worstCorr),
	}
	return &Output{Name: "fig14", Description: "primary pattern reconstruction", Tables: []*report.Table{tbl}, Figures: []*report.Figure{fig}, Notes: notes}, nil
}

// Figure15 regenerates the amplitude/phase scatter of the towers at the
// three principal components (Figure 15).
func Figure15(env *Env) (*Output, error) {
	res := env.Result
	figs := make([]*report.Figure, 0, 3)
	components := []struct {
		name string
		amp  func(freqdomain.Features) float64
		ph   func(freqdomain.Features) float64
	}{
		{"one week (k=week)", func(f freqdomain.Features) float64 { return f.AmpWeek }, func(f freqdomain.Features) float64 { return f.PhaseWeek }},
		{"one day (k=day)", func(f freqdomain.Features) float64 { return f.AmpDay }, func(f freqdomain.Features) float64 { return f.PhaseDay }},
		{"half a day (k=half-day)", func(f freqdomain.Features) float64 { return f.AmpHalfDay }, func(f freqdomain.Features) float64 { return f.PhaseHalfDay }},
	}
	for _, comp := range components {
		fig := &report.Figure{Title: "Figure 15: amplitude vs phase, " + comp.name, XLabel: "amplitude", YLabel: "phase"}
		for _, view := range regionOrder(res) {
			var xs, ys []float64
			for _, row := range view.Members {
				f := res.Features[row]
				xs = append(xs, comp.amp(f))
				ys = append(ys, comp.ph(f))
			}
			if err := fig.AddSeries(view.Region.String(), xs, ys); err != nil {
				return nil, err
			}
		}
		figs = append(figs, fig)
	}
	// Shape checks computed from per-cluster circular means.
	stats, err := freqdomain.GroupStats(res.Features, res.Assignment.Members())
	if err != nil {
		return nil, err
	}
	officeView, err := res.ClusterByRegion(urban.Office)
	if err != nil {
		return nil, err
	}
	residentView, err := res.ClusterByRegion(urban.Resident)
	if err != nil {
		return nil, err
	}
	transportView, err := res.ClusterByRegion(urban.Transport)
	if err != nil {
		return nil, err
	}
	weekSep := linalg.PhaseDistance(stats[officeView.Index][0].PhaseMean, stats[residentView.Index][0].PhaseMean)
	notes := []string{
		fmt.Sprintf("office vs resident weekly phase separation = %.2f rad (paper: about π apart)", weekSep),
		fmt.Sprintf("transport towers have the largest half-day amplitude (%.3f vs office %.3f), the double-hump signature", stats[transportView.Index][2].AmpMean, stats[officeView.Index][2].AmpMean),
	}
	return &Output{Name: "fig15", Description: "amplitude/phase scatter", Figures: figs, Notes: notes}, nil
}

// Figure16 regenerates the per-pattern means and standard deviations of
// amplitude and phase (Figure 16).
func Figure16(env *Env) (*Output, error) {
	res := env.Result
	stats, err := freqdomain.GroupStats(res.Features, res.Assignment.Members())
	if err != nil {
		return nil, err
	}
	componentNames := []string{"week", "day", "half-day"}
	tbl := &report.Table{
		Title:   "Figure 16: amplitude and phase statistics per pattern and component",
		Headers: []string{"region", "component", "amp mean", "amp std", "phase mean", "phase std"},
	}
	phaseOrder := map[urban.Region]float64{}
	for _, view := range regionOrder(res) {
		for c, name := range componentNames {
			s := stats[view.Index][c]
			tbl.AddRow(view.Region.String(), name, s.AmpMean, s.AmpStd, s.PhaseMean, s.PhaseStd)
			if c == 1 {
				phaseOrder[view.Region] = s.PhaseMean
			}
		}
	}
	notes := []string{
		fmt.Sprintf("daily-component phase means: resident %.2f, comprehensive %.2f, transport %.2f, office %.2f (paper: incremental along the home→transport→office commute)",
			phaseOrder[urban.Resident], phaseOrder[urban.Comprehensive], phaseOrder[urban.Transport], phaseOrder[urban.Office]),
	}
	return &Output{Name: "fig16", Description: "amplitude/phase statistics", Tables: []*report.Table{tbl}, Notes: notes}, nil
}

// Figure17 regenerates the primary-component polygon view (Figure 17): the
// representative tower of each primary pattern and how well the remaining
// towers fit inside the polygon they span.
func Figure17(env *Env) (*Output, error) {
	res := env.Result
	primaries, err := res.PrimaryComponents()
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   "Figure 17: primary components (most representative towers)",
		Headers: []string{"region", "dataset row", "amp day", "phase day", "amp half-day"},
	}
	for i, region := range urban.PrimaryRegions {
		f := primaries[i]
		tbl.AddRow(region.String(), f.Index, f.AmpDay, f.PhaseDay, f.AmpHalfDay)
	}
	// Decompose every tower against the polygon and report the residuals.
	decs, err := freqdomain.DecomposeAll(res.Features, primaries)
	if err != nil {
		return nil, err
	}
	residuals := make(linalg.Vector, len(decs))
	for i, d := range decs {
		residuals[i] = d.Residual
	}
	scale := featureScale(res.Features)
	resTbl := &report.Table{
		Title:   "Figure 17: distance of towers from the primary-component polygon",
		Headers: []string{"statistic", "value"},
	}
	mean := residuals.Mean()
	p90 := linalg.Quantile(residuals, 0.9)
	max, _ := residuals.Max()
	resTbl.AddRow("mean residual", mean)
	resTbl.AddRow("90th percentile residual", p90)
	resTbl.AddRow("max residual", max)
	resTbl.AddRow("feature space scale (median pairwise distance)", scale)
	notes := []string{
		fmt.Sprintf("90%% of towers lie within %.3f of the polygon spanned by the four primary components (feature-space scale %.3f) — the linear-combination statement of Section 5.2", p90, scale),
	}
	return &Output{Name: "fig17", Description: "primary component polygon", Tables: []*report.Table{tbl, resTbl}, Notes: notes}, nil
}

// featureScale estimates the spread of the three-dimensional feature cloud.
func featureScale(features []freqdomain.Features) float64 {
	points := make([]linalg.Vector, len(features))
	for i, f := range features {
		points[i] = f.Vector3()
	}
	var dists linalg.Vector
	step := 1
	if len(points) > 200 {
		step = len(points) / 200
	}
	for i := 0; i < len(points); i += step {
		for j := i + step; j < len(points); j += step {
			d, err := linalg.Distance(points[i], points[j])
			if err == nil {
				dists = append(dists, d)
			}
		}
	}
	return linalg.Quantile(dists, 0.5)
}

// table6Selection picks the towers reported in Table 6: the four primary
// representative towers (F1–F4) and up to five comprehensive towers
// (P1–P5).
func table6Selection(env *Env) (primaryRows []int, comprehensiveRows []int, err error) {
	res := env.Result
	for _, region := range urban.PrimaryRegions {
		view, err := res.ClusterByRegion(region)
		if err != nil {
			return nil, nil, err
		}
		primaryRows = append(primaryRows, view.Representative)
	}
	comp, err := res.ClusterByRegion(urban.Comprehensive)
	if err != nil {
		return primaryRows, nil, nil // tolerate a missing comprehensive cluster
	}
	members := append([]int(nil), comp.Members...)
	// Spread the picks across the cluster for variety.
	n := 5
	if n > len(members) {
		n = len(members)
	}
	for i := 0; i < n; i++ {
		comprehensiveRows = append(comprehensiveRows, members[i*len(members)/n])
	}
	return primaryRows, comprehensiveRows, nil
}

// Table6 regenerates the convex-combination coefficients and NTF-IDF
// comparison (Table 6 of the paper).
func Table6(env *Env) (*Output, error) {
	res := env.Result
	primaries, err := res.PrimaryComponents()
	if err != nil {
		return nil, err
	}
	primaryRows, compRows, err := table6Selection(env)
	if err != nil {
		return nil, err
	}
	ntf, err := poi.NTFIDF(res.TowerPOI)
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title: "Table 6: convex combination coefficients and NTF-IDF",
		Headers: []string{"tower", "coef resident", "coef transport", "coef office", "coef entertainment",
			"ntfidf resident", "ntfidf transport", "ntfidf office", "ntfidf entertainment"},
	}
	addRow := func(name string, row int) (*freqdomain.Decomposition, error) {
		dec, err := freqdomain.Decompose(res.Features[row], primaries)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(name,
			dec.Coefficients[0], dec.Coefficients[1], dec.Coefficients[2], dec.Coefficients[3],
			ntf[row][poi.Resident], ntf[row][poi.Transport], ntf[row][poi.Office], ntf[row][poi.Entertainment])
		return dec, nil
	}
	diagonal := 0
	for i, row := range primaryRows {
		dec, err := addRow(fmt.Sprintf("F%d (%s)", i+1, urban.PrimaryRegions[i]), row)
		if err != nil {
			return nil, err
		}
		if _, argmax := dec.Coefficients.Max(); argmax == i {
			diagonal++
		}
	}
	// Agreement between the smallest coefficient and the smallest NTF-IDF
	// for the comprehensive towers (the consistency check of Section 5.3).
	agree, totalComp := 0, 0
	for i, row := range compRows {
		dec, err := addRow(fmt.Sprintf("P%d (comprehensive)", i+1), row)
		if err != nil {
			return nil, err
		}
		totalComp++
		if smallestAgree(dec.Coefficients, ntf[row]) {
			agree++
		}
	}
	notes := []string{
		fmt.Sprintf("representative towers decompose onto their own component for %d of 4 (paper: coefficients of F1-F4 are exactly 1)", diagonal),
		fmt.Sprintf("smallest coefficient matches smallest NTF-IDF for %d of %d comprehensive towers (paper: the small entries coincide)", agree, totalComp),
	}
	return &Output{Name: "table6", Description: "coefficients vs NTF-IDF", Tables: []*report.Table{tbl}, Notes: notes}, nil
}

// smallestAgree reports whether a tower's smallest-NTF-IDF POI type also
// has its smallest convex-combination coefficient. Several coefficients can
// be exactly zero, so the type agrees when its coefficient equals the
// minimum, not only when it is the first index holding it.
func smallestAgree(coefs linalg.Vector, ntf poi.Counts) bool {
	minNTF, minNTFIdx := math.Inf(1), 0
	for t := 0; t < poi.NumTypes; t++ {
		if ntf[t] < minNTF {
			minNTF, minNTFIdx = ntf[t], t
		}
	}
	minCoef, _ := coefs.Min()
	return coefs[minNTFIdx] == minCoef
}

// pickP5 selects the comprehensive tower used by Figures 18 and 19 (the
// analogue of tower P5 in the paper): the last of the Table 6 selection.
func pickP5(env *Env) (int, error) {
	_, compRows, err := table6Selection(env)
	if err != nil {
		return 0, err
	}
	if len(compRows) == 0 {
		return 0, fmt.Errorf("experiments: no comprehensive towers available")
	}
	return compRows[len(compRows)-1], nil
}

// Figure18 regenerates the frequency-domain convex combination of one
// comprehensive tower (Figure 18).
func Figure18(env *Env) (*Output, error) {
	res := env.Result
	row, err := pickP5(env)
	if err != nil {
		return nil, err
	}
	primaries, err := res.PrimaryComponents()
	if err != nil {
		return nil, err
	}
	dec, err := freqdomain.Decompose(res.Features[row], primaries)
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   fmt.Sprintf("Figure 18: convex combination of tower row %d in the frequency domain", row),
		Headers: []string{"component", "coefficient", "amp day", "phase day", "amp half-day"},
	}
	for i, region := range urban.PrimaryRegions {
		f := primaries[i]
		tbl.AddRow(region.String(), dec.Coefficients[i], f.AmpDay, f.PhaseDay, f.AmpHalfDay)
	}
	target := res.Features[row]
	tbl.AddRow("target tower", 1.0, target.AmpDay, target.PhaseDay, target.AmpHalfDay)
	notes := []string{
		fmt.Sprintf("residual of the convex combination = %.4f; coefficients = %v", dec.Residual, formatCoefficients(dec.Coefficients)),
	}
	return &Output{Name: "fig18", Description: "frequency-domain combination", Tables: []*report.Table{tbl}, Notes: notes}, nil
}

func formatCoefficients(c linalg.Vector) string {
	out := "["
	for i, v := range c {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%.2f", v)
	}
	return out + "]"
}

// Figure19 regenerates the time-domain convex combination of the same
// comprehensive tower (Figure 19).
func Figure19(env *Env) (*Output, error) {
	res := env.Result
	ds := env.Dataset
	row, err := pickP5(env)
	if err != nil {
		return nil, err
	}
	primaries, err := res.PrimaryComponents()
	if err != nil {
		return nil, err
	}
	dec, err := freqdomain.Decompose(res.Features[row], primaries)
	if err != nil {
		return nil, err
	}
	primarySeries := make([]linalg.Vector, len(primaries))
	for i, p := range primaries {
		primarySeries[i] = ds.Normalized[p.Index]
	}
	combo, err := freqdomain.CombineTimeDomain(dec, primarySeries, ds.Days)
	if err != nil {
		return nil, err
	}
	weekSlots := 7 * ds.SlotsPerDay()
	x := weekTimeAxis(weekSlots, ds.SlotMinutes, ds.Start)
	fig := &report.Figure{Title: fmt.Sprintf("Figure 19: time-domain components of tower row %d (first week)", row), XLabel: "day", YLabel: "normalised traffic"}
	for i, region := range urban.PrimaryRegions {
		if err := fig.AddSeries("component-"+region.String(), x, combo.Components[i][:weekSlots]); err != nil {
			return nil, err
		}
	}
	if err := fig.AddSeries("combined", x, combo.Combined[:weekSlots]); err != nil {
		return nil, err
	}
	if err := fig.AddSeries("actual", x, ds.Normalized[row][:weekSlots]); err != nil {
		return nil, err
	}
	corr, err := linalg.Pearson(combo.Combined, ds.Normalized[row])
	if err != nil {
		return nil, err
	}
	notes := []string{
		fmt.Sprintf("correlation between the combined primary components and the tower's actual traffic = %.3f (paper: the combination approximates the tower's traffic)", corr),
	}
	return &Output{Name: "fig19", Description: "time-domain combination", Figures: []*report.Figure{fig}, Notes: notes}, nil
}
