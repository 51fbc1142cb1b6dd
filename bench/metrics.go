package main

import (
	"crypto/sha256"
	"fmt"
	"slices"

	"repro/internal/core"
)

// analyzeStages are the spans stagedAnalyze records: the children that
// core.self_s subtracts from the real core.AnalyzeContext call.
var analyzeStages = []string{
	"cluster.hierarchical", "cluster.dbi_sweep", "nmf.factorize", "poi.count", "label.label",
	"freqdomain.extract", "freqdomain.representatives", "timedomain.summarize",
}

// remodelStages are the spans stagedRemodel adds around the analysis: with
// core.analyze they are what serve.self_s subtracts from RemodelNow.
var remodelStages = []string{"window.dataset", "anomaly.detect_all", "forecast.backtest_fit", "cluster.validity"}

// layerMetrics turns the spans of a traced pass into per-layer metrics.
// Every span name X yields X_s, the median over repetitions of the span's
// self time; counts, rates and allocation volumes hang off the same spans.
// untraced are the wall times of the end-to-end repetitions run in the
// same pass, replays those of the staged repetitions, paired by index.
func layerMetrics(r *report, tr *tracer, untraced, replays []float64) {
	self := selfSeconds(tr.spans)
	secs := byName(tr.spans, func(i int, _ span) float64 { return self[i] })
	allocMB := byName(tr.spans, func(_ int, s span) float64 { return float64(s.AllocBytes) / 1e6 })
	mallocs := byName(tr.spans, func(_ int, s span) float64 { return float64(s.Mallocs) })
	counts := map[string]map[string]float64{}
	for _, s := range tr.spans {
		if s.Counts != nil {
			counts[s.Name] = s.Counts
		}
	}
	for name, xs := range secs {
		if name != "replay" {
			r.sample(name+"_s", xs)
		}
	}
	med := func(name string) float64 { return median(secs[name]) }
	sum := func(names []string) (total float64) {
		for _, n := range names {
			total += med(n)
		}
		return total
	}
	has := func(name string) bool { return len(secs[name]) > 0 }

	if has("trace.scan") {
		r.set("trace.scan_records", counts["trace.scan"]["records"])
		r.set("trace.scan_mb_per_s", counts["trace.scan"]["bytes"]/1e6/med("trace.scan"))
		r.sample("trace.scan_allocs", mallocs["trace.scan"])
		r.set("trace.clean_removed", counts["trace.clean"]["removed"])
	}
	if has("pipeline.vectorize") {
		r.sample("pipeline.vectorize_alloc_mb", allocMB["pipeline.vectorize"])
	}
	if has("window.addbatch") {
		r.set("window.addbatch_records_per_s", counts["window.addbatch"]["records"]/med("window.addbatch"))
	}
	if has("window.dataset") {
		r.sample("window.dataset_alloc_mb", allocMB["window.dataset"])
	}
	if has("window.snapshot_decode") {
		r.set("window.snapshot_bytes", counts["window.snapshot_decode"]["bytes"])
	}
	if has("linalg.distances") {
		r.set("linalg.distances_pairs_per_s", counts["linalg.distances"]["pairs"]/med("linalg.distances"))
		r.set("cluster.nnchain_s", med("cluster.hierarchical")-med("linalg.distances"))
	}
	if has("cluster.hierarchical") {
		r.sample("cluster.hierarchical_alloc_mb", allocMB["cluster.hierarchical"])
	}
	if has("nmf.factorize") {
		r.set("nmf.iterations", counts["nmf.factorize"]["iterations"])
		r.sample("nmf.alloc_mb", allocMB["nmf.factorize"])
	}
	if has("anomaly.detect_all") {
		r.set("anomaly.flagged", counts["anomaly.detect_all"]["flagged"])
	}
	if has("core.analyze") {
		r.set("core.self_s", med("core.analyze")-sum(analyzeStages))
	}

	// Harness validity: what the staged chain costs against the same work
	// end to end, and how much of the end-to-end time the stages explain.
	// Each replay is compared with the end-to-end repetition that ran just
	// before it, so that slow minutes of the machine cancel out.
	var covered []float64
	for id, s := range tr.spans {
		if s.Name != "replay" {
			continue
		}
		var total float64
		for _, c := range tr.spans[id+1:] {
			if c.Parent == id && !c.Probe {
				total += c.seconds()
			}
		}
		covered = append(covered, total)
	}
	if len(untraced) != len(replays) { // serve-mixed: one replay against the median cold start
		untraced = slices.Repeat([]float64{median(untraced)}, len(replays))
	}
	overhead := make([]float64, len(replays))
	for i := range replays {
		overhead[i] = replays[i] / untraced[i]
		covered[i] /= untraced[i]
	}
	r.sample("trace_overhead_ratio", overhead)
	r.sample("trace_coverage", covered)
}

// flagCoverage marks the traced pass of a workload whose stages run one
// after another end to end when they explain less than 0.9 or more than
// 1.1 of the end-to-end time: outside that band the per-layer numbers do
// not add up to the metric they are meant to explain. It is a statement
// about the measurement, not about the program's output, so the pass is
// flagged and not failed.
func flagCoverage(r *report) {
	if c := r.values["trace_coverage"]; c < 0.9 || c > 1.1 {
		r.notef("FLAGGED: trace_coverage %.3f outside 0.9–1.1: read this pass's per-layer times with care", c)
	}
}

// digest condenses the modeling decisions of a result — cluster count,
// assignment, land-use labels, NMF rank and dominant bases — so that
// repetitions and the staged replay can be compared for equality.
func digest(res *core.Result) string {
	h := sha256.New()
	rank := 0
	if res.NMF != nil {
		rank = res.NMF.H.Rows
	}
	fmt.Fprintln(h, res.OptimalK, res.Assignment.Labels, res.ClusterLabels, res.TowerRegions, rank, res.DominantBasis)
	return fmt.Sprintf("k=%d rank=%d %x", res.OptimalK, rank, h.Sum(nil)[:8])
}

func sameDecisions(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s decided %s, want %s", what, got, want)
	}
	return nil
}
