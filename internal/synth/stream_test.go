package synth

import (
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/trace"
)

// next pulls one record from src: the scalar pull of the deleted
// LogStream.Next.
func next(src trace.Source) (trace.Record, error) {
	var one [1]trace.Record
	for {
		n, err := src.NextBatch(one[:])
		if n == 1 {
			return one[0], nil
		}
		if err != nil {
			return trace.Record{}, err
		}
	}
}

// vectorizeSource is the body of the deleted ctx-less
// pipeline.VectorizeSource.
func vectorizeSource(src trace.Source, towers []trace.TowerInfo, opts pipeline.VectorizerOptions) (*pipeline.Dataset, error) {
	return pipeline.VectorizeSourceContext(context.Background(), src, towers, opts)
}

func TestLogSourceCloseEarly(t *testing.T) {
	city, series := logTestCity(t)
	src := city.LogSource(series, LogOptions{})
	if _, err := next(src); err != nil {
		t.Fatal(err)
	}
	src.Close()
	if _, err := next(src); !errors.Is(err, io.EOF) {
		t.Errorf("closed stream should return io.EOF, got %v", err)
	}
	src.Close() // idempotent
}

// A cell goes straight into dst when dst has room for a whole one
// (3 × MaxRecordsPerSlot records) and through the stream's buffer when it
// has not; batch sizes around that bound mix the two paths in one pull,
// and every size yields the same stream. Nearly every record here carries
// a duplicate and a conflict, so full cells are common.
func TestLogSourceBatchSizesAgree(t *testing.T) {
	cfg := tinyConfig()
	cfg.Towers, cfg.Days = 10, 2
	cfg.DuplicateFraction, cfg.ConflictFraction = 0.99, 0.99
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		t.Fatal(err)
	}
	want := collectLogs(t, city, series, LogOptions{TimeMajor: true})
	for _, size := range []int{11, 12, 13, 25} {
		src := city.LogSource(series, LogOptions{TimeMajor: true})
		got, err := pullAll(t, src, size, false)
		if !errors.Is(err, io.EOF) {
			t.Fatalf("dst of %d: terminal error %v", size, err)
		}
		if len(got) != len(want) {
			t.Fatalf("dst of %d: %d records, want %d", size, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dst of %d: record %d is %+v, want %+v", size, i, got[i], want[i])
			}
		}
	}
}

func TestLogSourcePropagatesGeneratorError(t *testing.T) {
	city, _ := logTestCity(t)
	bad := []TowerSeries{{TowerID: 99999, Bytes: make([]float64, city.Config.TotalSlots())}}
	src := city.LogSource(bad, LogOptions{})
	defer src.Close()
	_, err := next(src)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("generator error should surface, got %v", err)
	}
	// Sticky.
	if _, err2 := next(src); !errors.Is(err2, err) {
		t.Errorf("error should be sticky, got %v", err2)
	}
}

// The headline equivalence property of streaming ingestion: streaming a
// synthetic city's CDR log through CleanSource +
// VectorizeSourceContext yields a Dataset identical to the batch path
// (collect the log → Clean → vectorize the slice) over the same logs.
func TestStreamingIngestionMatchesBatchOverCityLogs(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		cfg := tinyConfig()
		cfg.Towers = 12
		cfg.Days = 7
		cfg.Seed = seed
		cfg.DuplicateFraction = 0.08
		cfg.ConflictFraction = 0.05
		city, err := GenerateCity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		series, err := city.GenerateSeries()
		if err != nil {
			t.Fatal(err)
		}
		opts := pipeline.VectorizerOptions{
			Start:       cfg.Start,
			Days:        cfg.Days,
			SlotMinutes: cfg.SlotMinutes,
		}
		towers := city.TowerInfos()

		records := collectLogs(t, city, series, LogOptions{})
		cleaned, batchStats := trace.Clean(records)
		want, err := vectorizeSource(trace.SliceSource(cleaned), towers, opts)
		if err != nil {
			t.Fatal(err)
		}

		src := city.LogSource(series, LogOptions{})
		cleanedSrc := trace.CleanSource(src)
		got, err := vectorizeSource(cleanedSrc, towers, opts)
		src.Close()
		if err != nil {
			t.Fatal(err)
		}
		streamStats := cleanedSrc.Stats()

		if got.NumTowers() != want.NumTowers() || got.NumSlots() != want.NumSlots() {
			t.Fatalf("seed %d: shape %d×%d vs %d×%d", seed,
				got.NumTowers(), got.NumSlots(), want.NumTowers(), want.NumSlots())
		}
		for i := 0; i < want.NumTowers(); i++ {
			if got.TowerIDs[i] != want.TowerIDs[i] {
				t.Fatalf("seed %d: row %d tower %d vs %d", seed, i, got.TowerIDs[i], want.TowerIDs[i])
			}
			if got.Locations[i] != want.Locations[i] {
				t.Fatalf("seed %d: row %d location differs", seed, i)
			}
			for j := range want.Raw[i] {
				if got.Raw[i][j] != want.Raw[i][j] {
					t.Fatalf("seed %d: tower %d slot %d raw %g vs %g",
						seed, want.TowerIDs[i], j, got.Raw[i][j], want.Raw[i][j])
				}
				if got.Normalized[i][j] != want.Normalized[i][j] {
					t.Fatalf("seed %d: tower %d slot %d normalized differs", seed, want.TowerIDs[i], j)
				}
			}
		}
		if streamStats.Input != batchStats.Input ||
			streamStats.Invalid != batchStats.Invalid ||
			streamStats.Duplicates != batchStats.Duplicates ||
			streamStats.Conflicts != batchStats.Conflicts {
			t.Errorf("seed %d: stream stats %+v vs batch stats %+v", seed, streamStats, batchStats)
		}
	}
}
