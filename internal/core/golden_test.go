package core

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/synth"
)

// updateGolden regenerates the golden fixture:
//
//	go test ./internal/core -run TestGoldenEndToEnd -update
var updateGolden = flag.Bool("update", false, "regenerate golden fixtures")

// goldenOptions is the full modeling configuration of the golden run: the
// metric tuner picks K and NMF extracts one basis per cluster. Everything
// downstream must be reproducible from the seed alone.
func goldenOptions() Options {
	return Options{
		MaxClusters: 8,
		Seed:        7,
		NMFRank:     NMFRankAuto,
	}
}

// goldenCity builds the seeded synthetic city of the golden run.
func goldenCity(t *testing.T) (*synth.City, *pipeline.Dataset) {
	t.Helper()
	cfg := synth.SmallConfig()
	cfg.Towers = 120
	cfg.Days = 14
	cfg.Seed = 23
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := city.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	return city, ds
}

// goldenModel is the checked-in snapshot of everything the paper pipeline
// decides: how many patterns, which towers belong to which, which NMF basis
// dominates each tower and which land use every cluster gets.
type goldenModel struct {
	Towers        int      `json:"towers"`
	Slots         int      `json:"slots"`
	OptimalK      int      `json:"optimal_k"`
	ClusterSizes  []int    `json:"cluster_sizes"`
	ClusterLabels []string `json:"cluster_labels"`
	Assignment    []int    `json:"assignment"`
	DominantBasis []int    `json:"dominant_basis"`
	NMFIterations int      `json:"nmf_iterations"`
}

func snapshotModel(res *Result) goldenModel {
	labels := make([]string, len(res.ClusterLabels))
	for i, r := range res.ClusterLabels {
		labels[i] = r.String()
	}
	return goldenModel{
		Towers:        res.Dataset.NumTowers(),
		Slots:         res.Dataset.NumSlots(),
		OptimalK:      res.OptimalK,
		ClusterSizes:  res.Assignment.Sizes(),
		ClusterLabels: labels,
		Assignment:    res.Assignment.Labels,
		DominantBasis: res.DominantBasis,
		NMFIterations: res.NMF.Iterations,
	}
}

// TestGoldenEndToEnd is the regression net over the full paper pipeline:
// seeded city → vectorisation → clustering → metric tuner → NMF →
// labelling, compared field by field against a checked-in fixture. Any
// refactor that changes what the pipeline decides — not just how fast it
// decides it — fails here. Regenerate deliberately with -update.
func TestGoldenEndToEnd(t *testing.T) {
	city, ds := goldenCity(t)
	res, err := AnalyzeContext(context.Background(), ds, city.POIs, goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := snapshotModel(res)

	path := filepath.Join("testdata", "golden_city.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update): %v", err)
	}
	var want goldenModel
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing golden fixture: %v", err)
	}
	if got.Towers != want.Towers || got.Slots != want.Slots {
		t.Fatalf("dataset shape %dx%d, golden %dx%d", got.Towers, got.Slots, want.Towers, want.Slots)
	}
	if got.OptimalK != want.OptimalK {
		t.Errorf("metric tuner picked K=%d, golden %d", got.OptimalK, want.OptimalK)
	}
	if !reflect.DeepEqual(got.ClusterSizes, want.ClusterSizes) {
		t.Errorf("cluster sizes %v, golden %v", got.ClusterSizes, want.ClusterSizes)
	}
	if !reflect.DeepEqual(got.ClusterLabels, want.ClusterLabels) {
		t.Errorf("land-use labels %v, golden %v", got.ClusterLabels, want.ClusterLabels)
	}
	if !reflect.DeepEqual(got.Assignment, want.Assignment) {
		t.Errorf("cluster assignment diverged from golden fixture")
	}
	if !reflect.DeepEqual(got.DominantBasis, want.DominantBasis) {
		t.Errorf("NMF dominant-basis assignment diverged from golden fixture")
	}
	if got.NMFIterations != want.NMFIterations {
		t.Errorf("NMF converged in %d iterations, golden %d", got.NMFIterations, want.NMFIterations)
	}
}

// TestAnalyzeBitIdenticalAcrossWorkers is the determinism acceptance test:
// same seed ⇒ same labels, assignments and factors for every Workers
// value.
func TestAnalyzeBitIdenticalAcrossWorkers(t *testing.T) {
	city, ds := goldenCity(t)
	opts := goldenOptions()
	opts.Workers = 1
	serial, err := AnalyzeContext(context.Background(), ds, city.POIs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		opts.Workers = workers
		par, err := AnalyzeContext(context.Background(), ds, city.POIs, opts)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(par.Assignment, serial.Assignment) {
			t.Errorf("workers %d: cluster assignment differs from serial run", workers)
		}
		if !reflect.DeepEqual(par.Dendrogram, serial.Dendrogram) {
			t.Errorf("workers %d: dendrogram differs from serial run", workers)
		}
		if !reflect.DeepEqual(par.ClusterLabels, serial.ClusterLabels) {
			t.Errorf("workers %d: land-use labels differ from serial run", workers)
		}
		if !reflect.DeepEqual(par.DominantBasis, serial.DominantBasis) {
			t.Errorf("workers %d: NMF dominant basis differs from serial run", workers)
		}
		if !reflect.DeepEqual(par.NMF.W.Data, serial.NMF.W.Data) || !reflect.DeepEqual(par.NMF.H.Data, serial.NMF.H.Data) {
			t.Errorf("workers %d: NMF factors differ from serial run", workers)
		}
	}
}
