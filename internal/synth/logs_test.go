package synth

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// logTestCity returns a very small city and its ground-truth series so log
// emission tests stay fast.
func logTestCity(t *testing.T) (*City, []TowerSeries) {
	t.Helper()
	cfg := tinyConfig()
	cfg.Towers = 10
	cfg.Days = 2
	cfg.DuplicateFraction = 0.05
	cfg.ConflictFraction = 0.03
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		t.Fatal(err)
	}
	return city, series
}

// collectLogs drains the CDR log of the series.
func collectLogs(t *testing.T, city *City, series []TowerSeries, opts LogOptions) []trace.Record {
	t.Helper()
	records, err := trace.Collect(city.LogSource(series, opts))
	if err != nil {
		t.Fatal(err)
	}
	return records
}

func TestGenerateLogsRecordsAreValid(t *testing.T) {
	city, series := logTestCity(t)
	records := collectLogs(t, city, series, LogOptions{})
	if len(records) == 0 {
		t.Fatal("no records emitted")
	}
	if _, stats := trace.Clean(records); stats.Invalid != 0 {
		t.Fatalf("the cleaner rejects %d of %d records as invalid", stats.Invalid, stats.Input)
	}
	for i, r := range records {
		if r.UserID >= city.Config.Users {
			t.Fatalf("record %d user id %d out of range", i, r.UserID)
		}
		if r.Start.Before(city.Config.Start) {
			t.Fatalf("record %d starts before the trace window", i)
		}
	}
}

func TestGenerateLogsCleanedAggregateMatchesSeries(t *testing.T) {
	city, series := logTestCity(t)
	records := collectLogs(t, city, series, LogOptions{})
	cleaned, stats := trace.Clean(records)
	if stats.Duplicates == 0 {
		t.Error("expected some duplicate records to be injected")
	}
	if stats.Conflicts == 0 {
		t.Error("expected some conflicting records to be injected")
	}
	// Cleaned per-tower byte totals must equal the ground-truth series sums.
	wantTotals := make(map[int]float64)
	for _, s := range series {
		for _, v := range s.Bytes {
			wantTotals[s.TowerID] += v
		}
	}
	gotTotals := make(map[int]float64)
	for _, r := range cleaned {
		gotTotals[r.TowerID] += float64(r.Bytes)
	}
	for towerID, want := range wantTotals {
		if got := gotTotals[towerID]; got != want {
			t.Errorf("tower %d cleaned bytes = %g, want %g", towerID, got, want)
		}
	}
}

func TestGenerateLogsErrors(t *testing.T) {
	city, series := logTestCity(t)
	bad := append(series[:1:1], TowerSeries{TowerID: 99999, Bytes: make([]float64, city.Config.TotalSlots())})
	if _, err := trace.Collect(city.LogSource(bad, LogOptions{})); err == nil || !strings.Contains(err.Error(), "unknown tower 99999") {
		t.Errorf("unknown tower id: err %v", err)
	}
	short := append(series[:1:1], TowerSeries{TowerID: city.Towers[1].ID, Bytes: []float64{1, 2}})
	if _, err := trace.Collect(city.LogSource(short, LogOptions{TimeMajor: true})); err == nil || !strings.Contains(err.Error(), "has 2 slots") {
		t.Errorf("wrong series length: err %v", err)
	}
}

func TestLogOptionsDefaults(t *testing.T) {
	o := LogOptions{}.withDefaults()
	if o.MaxRecordsPerSlot != 4 {
		t.Errorf("default MaxRecordsPerSlot = %d, want 4", o.MaxRecordsPerSlot)
	}
	o = LogOptions{MaxRecordsPerSlot: 9}.withDefaults()
	if o.MaxRecordsPerSlot != 9 {
		t.Error("explicit option overridden")
	}
}

func TestTech3GOrLTE(t *testing.T) {
	r := newTestRand()
	seen := map[trace.Technology]bool{}
	for i := 0; i < 200; i++ {
		tech := Tech3GOrLTE(r)
		if tech != trace.Tech3G && tech != trace.TechLTE {
			t.Fatalf("unexpected technology %q", tech)
		}
		seen[tech] = true
	}
	if !seen[trace.Tech3G] || !seen[trace.TechLTE] {
		t.Error("both technologies should appear")
	}
}

func TestGenerateLogsTimeMajorOrderAndAggregate(t *testing.T) {
	city, series := logTestCity(t)
	records := collectLogs(t, city, series, LogOptions{TimeMajor: true})
	if len(records) == 0 {
		t.Fatal("no records emitted")
	}
	// Timestamps must be non-decreasing at slot granularity — the contract
	// a live feed (and the replay pacer) relies on.
	slotDur := int64(city.Config.SlotMinutes) * 60
	prevSlot := int64(-1)
	for i, r := range records {
		slot := r.Start.Unix() / slotDur
		if slot < prevSlot {
			t.Fatalf("record %d rewinds from slot %d to %d", i, prevSlot, slot)
		}
		prevSlot = slot
	}
	// The cleaned aggregate is the same as the tower-major emission's: the
	// ordering changes the record sequence, never the traffic.
	cleaned, stats := trace.Clean(records)
	if stats.Duplicates == 0 {
		t.Error("expected some duplicate records to be injected")
	}
	wantTotals := make(map[int]float64)
	for _, s := range series {
		for _, v := range s.Bytes {
			wantTotals[s.TowerID] += v
		}
	}
	gotTotals := make(map[int]float64)
	for _, r := range cleaned {
		gotTotals[r.TowerID] += float64(r.Bytes)
	}
	for towerID, want := range wantTotals {
		if got := gotTotals[towerID]; got != want {
			t.Errorf("tower %d cleaned bytes = %g, want %g", towerID, got, want)
		}
	}
}
