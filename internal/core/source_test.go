package core

import (
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/poi"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The ctx-less and slice-based ingestion wrappers had no caller outside
// the tests and were deleted; these are their one-line bodies.

func analyzeSource(src trace.Source, towers []trace.TowerInfo, pois []poi.POI, vopts pipeline.VectorizerOptions, opts Options) (*Result, trace.CleanStats, error) {
	return AnalyzeSourceContext(context.Background(), src, towers, pois, vopts, opts)
}

func vectorizeRecords(records []trace.Record, towers []trace.TowerInfo, vopts pipeline.VectorizerOptions) (*pipeline.Dataset, error) {
	return pipeline.VectorizeSourceContext(context.Background(), trace.SliceSource(records), towers, vopts)
}

func readCSV(r io.Reader) ([]trace.Record, int, error) {
	sc, err := trace.NewScanner(r)
	if err != nil {
		return nil, 0, err
	}
	records, err := trace.Collect(sc)
	return records, int(sc.Stats().SkippedRows()), err
}

// TestAnalyzeSourceMatchesBatchPath checks that the fully streaming entry
// point (log source → streaming cleaner → vectorizer → Analyze)
// produces the same analysis as the materialised batch path over the same
// synthetic city.
func TestAnalyzeSourceMatchesBatchPath(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming end-to-end path is slow; skipped with -short")
	}
	cfg := synth.SmallConfig()
	cfg.Towers = 60
	cfg.Users = 400
	cfg.Days = 7
	cfg.Seed = 3
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		t.Fatal(err)
	}
	vopts := pipeline.VectorizerOptions{
		Start:       cfg.Start,
		Days:        cfg.Days,
		SlotMinutes: cfg.SlotMinutes,
	}
	opts := Options{ForceK: 5}

	// Batch path.
	records, err := trace.Collect(city.LogSource(series, synth.LogOptions{MaxRecordsPerSlot: 2}))
	if err != nil {
		t.Fatal(err)
	}
	cleaned, batchStats := trace.Clean(records)
	wantDS, err := vectorizeRecords(cleaned, city.TowerInfos(), vopts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeContext(context.Background(), wantDS, city.POIs, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Streaming path.
	src := city.LogSource(series, synth.LogOptions{MaxRecordsPerSlot: 2})
	defer src.Close()
	got, stats, err := analyzeSource(src, city.TowerInfos(), city.POIs, vopts, opts)
	if err != nil {
		t.Fatal(err)
	}

	if stats.Input != batchStats.Input || stats.Invalid != batchStats.Invalid ||
		stats.Duplicates != batchStats.Duplicates || stats.Conflicts != batchStats.Conflicts {
		t.Errorf("clean stats differ: stream %+v vs batch %+v", stats, batchStats)
	}
	if got.Dataset.NumTowers() != want.Dataset.NumTowers() {
		t.Fatalf("towers: %d vs %d", got.Dataset.NumTowers(), want.Dataset.NumTowers())
	}
	for i := range want.Dataset.Raw {
		for j := range want.Dataset.Raw[i] {
			if got.Dataset.Raw[i][j] != want.Dataset.Raw[i][j] {
				t.Fatalf("raw[%d][%d]: %g vs %g", i, j, got.Dataset.Raw[i][j], want.Dataset.Raw[i][j])
			}
		}
	}
	if got.OptimalK != want.OptimalK {
		t.Errorf("OptimalK: %d vs %d", got.OptimalK, want.OptimalK)
	}
	if len(got.Assignment.Labels) != len(want.Assignment.Labels) {
		t.Fatalf("assignment sizes differ")
	}
	for i := range want.Assignment.Labels {
		if got.Assignment.Labels[i] != want.Assignment.Labels[i] {
			t.Errorf("row %d assigned to cluster %d vs %d", i, got.Assignment.Labels[i], want.Assignment.Labels[i])
			break
		}
	}
	for c := range want.ClusterLabels {
		if got.ClusterLabels[c] != want.ClusterLabels[c] {
			t.Errorf("cluster %d labelled %v vs %v", c, got.ClusterLabels[c], want.ClusterLabels[c])
		}
	}
}

func TestAnalyzeSourceErrors(t *testing.T) {
	if _, _, err := analyzeSource(nil, nil, nil, pipeline.VectorizerOptions{}, Options{}); err == nil {
		t.Error("nil source should fail")
	}
	boom := errors.New("boom")
	src := trace.SourceFunc(func() (trace.Record, error) { return trace.Record{}, boom })
	if _, _, err := analyzeSource(src, nil, nil, pipeline.VectorizerOptions{}, Options{}); err == nil {
		t.Error("source error should fail the analysis")
	}
}
