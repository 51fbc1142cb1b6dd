package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/geo"
	"repro/internal/label"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/trace"
)

// TestEndToEndFromRawLogs exercises the complete slow path of the system:
// synthetic CDR emission (with duplicates and conflicts), CSV round trip,
// cleaning, tower metadata through a towers.csv round trip, record
// vectorisation, clustering, labelling and decomposition — the path a user
// with an actual log archive would follow via cmd/gentrace + cmd/analyze.
func TestEndToEndFromRawLogs(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end log path is slow; skipped with -short")
	}
	cfg := synth.SmallConfig()
	cfg.Towers = 80
	cfg.Users = 500
	cfg.Days = 7
	cfg.Seed = 9
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		t.Fatal(err)
	}
	records, err := trace.Collect(city.LogSource(series, synth.LogOptions{MaxRecordsPerSlot: 2}))
	if err != nil {
		t.Fatal(err)
	}

	// CSV round trip, as the logs would be stored on disk.
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	parsed, skipped, err := readCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped %d rows of freshly written CSV", skipped)
	}

	// Tower metadata, stored and read back as cmd/gentrace and cmd/analyze do.
	buf.Reset()
	if err := trace.WriteTowersCSV(&buf, city.TowerInfos()); err != nil {
		t.Fatal(err)
	}
	towers, err := trace.ReadTowersCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Preprocessing: clean, vectorise.
	cleaned, stats := trace.Clean(parsed)
	if stats.Duplicates == 0 && stats.Conflicts == 0 {
		t.Error("expected the generator to inject redundant or conflicting logs")
	}
	ds, err := vectorizeRecords(cleaned, towers, pipeline.VectorizerOptions{
		Start:       cfg.Start,
		Days:        cfg.Days,
		SlotMinutes: cfg.SlotMinutes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTowers() != cfg.Towers {
		t.Fatalf("vectorised %d towers, want %d", ds.NumTowers(), cfg.Towers)
	}

	// The vectorised logs must agree with the direct series path.
	direct, err := city.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.NumTowers(); i++ {
		directRow := direct.RowByTowerID(ds.TowerIDs[i])
		if directRow < 0 {
			t.Fatalf("tower %d missing from direct dataset", ds.TowerIDs[i])
		}
		if d := geo.DistanceMeters(ds.Locations[i], direct.Locations[directRow]); d > 1 {
			t.Errorf("tower %d: towers.csv location is %.1f m from the city's", ds.TowerIDs[i], d)
		}
		logSum := ds.Raw[i].Sum()
		directSum := direct.Raw[directRow].Sum()
		if logSum != directSum {
			t.Errorf("tower %d: log-path bytes %g != series-path bytes %g", ds.TowerIDs[i], logSum, directSum)
		}
	}

	// Full analysis on the log-derived dataset recovers the regions.
	res, err := AnalyzeContext(context.Background(), ds, city.POIs, Options{ForceK: 5})
	if err != nil {
		t.Fatal(err)
	}
	truthByID := make(map[int]int)
	for _, tw := range city.Towers {
		truthByID[tw.ID] = int(tw.Region)
	}
	truth := make([]int, ds.NumTowers())
	truthRegions := make([]synth.Region, ds.NumTowers())
	for i, id := range ds.TowerIDs {
		truth[i] = truthByID[id]
		truthRegions[i] = synth.Region(truthByID[id])
	}
	overall, _, err := label.Accuracy(res.TowerRegions, truthRegions)
	if err != nil {
		t.Fatal(err)
	}
	if overall < 0.7 {
		t.Errorf("log-path label accuracy = %g, want > 0.7", overall)
	}
	// Decomposition works on the log-derived dataset too.
	if _, _, err := res.DecomposeTower(0); err != nil {
		t.Errorf("decomposition on log-derived dataset: %v", err)
	}
	// POI counts should be populated for most towers.
	withPOI := 0
	for _, c := range res.TowerPOI {
		if c.Total() > 0 {
			withPOI++
		}
	}
	if withPOI < ds.NumTowers()/2 {
		t.Errorf("only %d of %d towers have POIs nearby", withPOI, ds.NumTowers())
	}
}
