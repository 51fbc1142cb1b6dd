// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic substrate: each experiment is a named
// runner that takes a prepared environment (city, vectorised dataset and
// analysis result) and produces tables, figures and headline notes. The
// cmd/experiments binary and the repository-level benchmarks both drive the
// same runners, so the notes cmd/experiments prints and the benchmark output
// come from identical code paths.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/urban"
)

// Scale selects the size of the synthetic workload.
type Scale struct {
	// Name is used in output paths and logs.
	Name string
	// Towers is the number of cellular towers.
	Towers int
	// Days is the number of days of traffic (trimmed to whole weeks).
	Days int
	// Seed drives the generator.
	Seed int64
	// Workers bounds the parallelism of the modeling stage (≤ 0 means
	// GOMAXPROCS). Results are identical for any value — the modeling
	// engine is deterministic — so experiments never depend on it.
	Workers int
}

// SmallScale is a fast configuration used by unit tests and the quickstart:
// a few hundred towers over two weeks.
func SmallScale() Scale { return Scale{Name: "small", Towers: 240, Days: 14, Seed: 11} }

// PaperScale approaches the paper's setting with a laptop-tractable number
// of towers over four whole weeks. It does not stand in for the paper's
// 9,600 towers: some results move with the tower count (Figure 6's share
// of members near their centroid and Figure 7's verdict differ between
// SmallScale and this scale), so a result measured here holds for 1,200
// towers only.
func PaperScale() Scale { return Scale{Name: "paper", Towers: 1200, Days: 28, Seed: 42} }

// Env is the shared input of all experiments.
type Env struct {
	Scale   Scale
	City    *synth.City
	Dataset *pipeline.Dataset
	Result  *core.Result
	// Truth[i] is the ground-truth region of dataset row i.
	Truth []urban.Region
	// Plan is the FFT plan for the dataset's slot count, shared by every
	// frequency-domain experiment. Runners execute sequentially, so the
	// plan's scratch buffers are never contended.
	Plan *dsp.Plan
}

// Build generates the synthetic city at the given scale, vectorises its
// traffic and runs the full analysis (forcing the paper's five clusters so
// every downstream experiment has the five patterns available; the metric
// tuner itself is evaluated by the Figure 6 experiment).
func Build(scale Scale) (*Env, error) {
	cfg := synth.DefaultConfig()
	cfg.Towers = scale.Towers
	cfg.Days = scale.Days
	cfg.Seed = scale.Seed
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating city: %w", err)
	}
	ds, err := city.BuildDataset()
	if err != nil {
		return nil, fmt.Errorf("experiments: building dataset: %w", err)
	}
	res, err := core.AnalyzeContext(context.Background(), ds, city.POIs, core.Options{
		ForceK:      5,
		MaxClusters: 10,
		Workers:     scale.Workers,
		Seed:        scale.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: analysing: %w", err)
	}
	truth, err := city.GroundTruthRegions(ds)
	if err != nil {
		return nil, fmt.Errorf("experiments: ground truth: %w", err)
	}
	plan, err := dsp.NewPlan(ds.NumSlots())
	if err != nil {
		return nil, fmt.Errorf("experiments: FFT plan: %w", err)
	}
	return &Env{Scale: scale, City: city, Dataset: ds, Result: res, Truth: truth, Plan: plan}, nil
}

// Output is the artefact bundle of one experiment.
type Output struct {
	// Name is the experiment identifier (e.g. "table1", "fig12").
	Name string
	// Description says which paper artefact the experiment regenerates.
	Description string
	// Tables and Figures carry the regenerated data.
	Tables  []*report.Table
	Figures []*report.Figure
	// Notes are headline findings phrased as paper-vs-measured checks.
	Notes []string
}

// Runner regenerates one experiment from a prepared environment.
type Runner struct {
	Name        string
	Description string
	Run         func(*Env) (*Output, error)
}

// Registry lists every experiment in paper order.
func Registry() []Runner {
	return []Runner{
		{"fig1", "Figure 1: temporal distribution of aggregate traffic", Figure1},
		{"fig2", "Figure 2: spatial traffic density at 4AM/10AM/4PM/10PM", Figure2},
		{"fig3", "Figure 3: residential vs business-district tower profiles", Figure3},
		{"fig4", "Figure 4: per-tower traffic across latitudes/longitudes", Figure4},
		{"fig5", "Figure 5: per-tower traffic within single regions", Figure5},
		{"fig6", "Figure 6: DBI variation, distance CDF and the five patterns", Figure6},
		{"table1", "Table 1: percentage of towers per cluster", Table1},
		{"fig7", "Figure 7: geographic density of each cluster", Figure7},
		{"table2", "Table 2: POI distribution at each cluster's densest point", Table2},
		{"fig8", "Figure 8: case-study validation of labels", Figure8},
		{"table3", "Table 3: averaged normalised POI of the five clusters", Table3},
		{"fig9", "Figure 9: POI share of each cluster", Figure9},
		{"fig10", "Figure 10: weekday/weekend ratios and peak-valley ratios", Figure10},
		{"table4", "Table 4: peak-valley features", Table4},
		{"table5", "Table 5: time of traffic peak and valley", Table5},
		{"fig11", "Figure 11: interrelationships between traffic patterns", Figure11},
		{"fig12", "Figure 12: DFT of aggregate traffic and 3-component reconstruction", Figure12},
		{"fig13", "Figure 13: variance of spectrum amplitude across towers", Figure13},
		{"fig14", "Figure 14: reconstructed traffic of the primary patterns", Figure14},
		{"fig15", "Figure 15: amplitude/phase distribution of the three components", Figure15},
		{"fig16", "Figure 16: per-pattern amplitude/phase means and deviations", Figure16},
		{"fig17", "Figure 17: primary components spanning the feature polygon", Figure17},
		{"table6", "Table 6: convex combination coefficients vs NTF-IDF", Table6},
		{"fig18", "Figure 18: convex combination of a comprehensive tower (frequency domain)", Figure18},
		{"fig19", "Figure 19: convex combination of a comprehensive tower (time domain)", Figure19},
	}
}

// RunnerByName returns the runner with the given name.
func RunnerByName(name string) (Runner, error) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// regionOrder returns the cluster views of the result ordered canonically
// (resident, transport, office, entertainment, comprehensive, then any
// further clusters by index) so tables line up with the paper's rows.
func regionOrder(res *core.Result) []core.ClusterView {
	views := make([]core.ClusterView, len(res.Clusters))
	copy(views, res.Clusters)
	rank := func(r urban.Region) int {
		for i, reg := range urban.Regions {
			if reg == r {
				return i
			}
		}
		return len(urban.Regions)
	}
	sort.SliceStable(views, func(i, j int) bool {
		ri, rj := rank(views[i].Region), rank(views[j].Region)
		if ri != rj {
			return ri < rj
		}
		return views[i].Index < views[j].Index
	})
	return views
}
