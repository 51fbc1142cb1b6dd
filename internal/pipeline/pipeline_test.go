package pipeline

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/trace"
)

var start = time.Date(2014, 8, 4, 0, 0, 0, 0, time.UTC) // a Monday

func defaultOpts() VectorizerOptions {
	return VectorizerOptions{Start: start, Days: 7, SlotMinutes: 10}
}

func rec(towerID, userID int, at time.Time, bytes int64) trace.Record {
	return trace.Record{
		UserID:  userID,
		Start:   at,
		End:     at.Add(time.Minute),
		TowerID: towerID,
		Address: "addr",
		Bytes:   bytes,
		Tech:    trace.TechLTE,
	}
}

// vectorizeSource and vectorizeRecords are the ctx-less and slice wrappers
// the package shed (only tests called them), kept as their one-line bodies.
func vectorizeSource(src trace.Source, towers []trace.TowerInfo, opts VectorizerOptions) (*Dataset, error) {
	return VectorizeSourceContext(context.Background(), src, towers, opts)
}

func vectorizeRecords(records []trace.Record, towers []trace.TowerInfo, opts VectorizerOptions) (*Dataset, error) {
	return vectorizeSource(trace.SliceSource(records), towers, opts)
}

func TestVectorizeRecordsBasic(t *testing.T) {
	records := []trace.Record{
		rec(1, 10, start.Add(5*time.Minute), 100),                // slot 0
		rec(1, 11, start.Add(12*time.Minute), 50),                // slot 1
		rec(1, 12, start.Add(12*time.Minute+30*time.Second), 25), // slot 1
		rec(2, 13, start.Add(24*time.Hour), 999),                 // day 2, slot 144
	}
	towers := []trace.TowerInfo{
		{TowerID: 1, Location: geo.Point{Lat: 31.2, Lon: 121.5}},
	}
	ds, err := vectorizeRecords(records, towers, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTowers() != 2 {
		t.Fatalf("towers = %d, want 2", ds.NumTowers())
	}
	if ds.NumSlots() != 7*144 {
		t.Fatalf("slots = %d, want %d", ds.NumSlots(), 7*144)
	}
	row1 := ds.RowByTowerID(1)
	if row1 < 0 {
		t.Fatal("tower 1 missing")
	}
	if ds.Raw[row1][0] != 100 || ds.Raw[row1][1] != 75 {
		t.Errorf("tower 1 slots = %g, %g; want 100, 75", ds.Raw[row1][0], ds.Raw[row1][1])
	}
	if ds.Locations[row1] != (geo.Point{Lat: 31.2, Lon: 121.5}) {
		t.Errorf("tower 1 location = %v", ds.Locations[row1])
	}
	row2 := ds.RowByTowerID(2)
	if ds.Raw[row2][144] != 999 {
		t.Errorf("tower 2 day-2 slot = %g, want 999", ds.Raw[row2][144])
	}
	if ds.Locations[row2] != (geo.Point{}) {
		t.Error("unresolved tower should have zero location")
	}
	// Normalised rows have zero mean.
	for i := range ds.Normalized {
		if math.Abs(ds.Normalized[i].Mean()) > 1e-9 {
			t.Errorf("row %d normalised mean = %g", i, ds.Normalized[i].Mean())
		}
	}
	if err := ds.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestVectorizeRecordsDropsOutOfWindow(t *testing.T) {
	records := []trace.Record{
		rec(1, 1, start.Add(-time.Hour), 100),     // before window
		rec(1, 1, start.Add(8*24*time.Hour), 100), // after trimmed window
		rec(1, 1, start.Add(time.Hour), 7),        // inside
	}
	ds, err := vectorizeRecords(records, nil, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	total := ds.Raw[0].Sum()
	if total != 7 {
		t.Errorf("in-window traffic = %g, want 7", total)
	}
}

func TestVectorizeRecordsTrimsToWholeWeeks(t *testing.T) {
	// 31 days of options trim to 28 days, like the paper.
	opts := defaultOpts()
	opts.Days = 31
	records := []trace.Record{rec(1, 1, start.Add(time.Hour), 5)}
	ds, err := vectorizeRecords(records, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Days != 28 {
		t.Errorf("Days = %d, want 28", ds.Days)
	}
	if ds.NumSlots() != 4032 {
		t.Errorf("slots = %d, want 4032", ds.NumSlots())
	}
	// Fewer than 7 days cannot be trimmed.
	opts = defaultOpts()
	opts.Days = 3
	ds, err = vectorizeRecords(records, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Days != 3 {
		t.Errorf("Days = %d, want 3", ds.Days)
	}
}

func TestVectorizeRecordsMinActiveSlots(t *testing.T) {
	records := []trace.Record{
		rec(1, 1, start.Add(time.Hour), 5), // tower 1: one active slot
		rec(2, 1, start.Add(time.Hour), 5), // tower 2: three active slots
		rec(2, 1, start.Add(2*time.Hour), 5),
		rec(2, 1, start.Add(3*time.Hour), 5),
	}
	opts := defaultOpts()
	opts.MinActiveSlots = 2
	ds, err := vectorizeRecords(records, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTowers() != 1 || ds.TowerIDs[0] != 2 {
		t.Errorf("expected only tower 2 to survive, got %v", ds.TowerIDs)
	}
}

func TestVectorizeRecordsErrors(t *testing.T) {
	if _, err := vectorizeRecords(nil, nil, defaultOpts()); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("empty records: got %v, want ErrEmptyDataset", err)
	}
	bad := defaultOpts()
	bad.Start = time.Time{}
	if _, err := vectorizeRecords([]trace.Record{rec(1, 1, start, 1)}, nil, bad); err == nil {
		t.Error("zero start should fail")
	}
	bad = defaultOpts()
	bad.Days = 0
	if _, err := vectorizeRecords([]trace.Record{rec(1, 1, start, 1)}, nil, bad); err == nil {
		t.Error("zero days should fail")
	}
	bad = defaultOpts()
	bad.SlotMinutes = 13
	if _, err := vectorizeRecords([]trace.Record{rec(1, 1, start, 1)}, nil, bad); err == nil {
		t.Error("bad slot minutes should fail")
	}
	bad = defaultOpts()
	bad.MinActiveSlots = -1
	if _, err := vectorizeRecords([]trace.Record{rec(1, 1, start, 1)}, nil, bad); err == nil {
		t.Error("negative MinActiveSlots should fail")
	}
}

// Z-scored rows of proportional traffic are identical: the vectorizer
// compares the shape of a tower's traffic, not its volume.
func TestVectorizeMatrixNormalizesAwayVolume(t *testing.T) {
	pattern := func(fill float64) []float64 {
		return filled(7*144, func(j int) float64 { return fill * float64(1+j%3) })
	}
	ds := vectorizeRows(t, defaultOpts(), pattern(10), pattern(3))
	d, err := linalg.Distance(ds.Normalized[0], ds.Normalized[1])
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-9 {
		t.Errorf("proportional series should normalise identically, distance = %g", d)
	}
}

// vectorizeRows is VectorizeMatrix over the given rows (tower IDs 100, 101,
// …), failing the test on error.
func vectorizeRows(t *testing.T, opts VectorizerOptions, rows ...[]float64) *Dataset {
	t.Helper()
	ids, locs, raw := matrixOf(rows)
	ds, err := VectorizeMatrix(ids, locs, raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDatasetAccessors(t *testing.T) {
	ds := vectorizeRows(t, defaultOpts(), constSeries(7*144, 2), constSeries(7*144, 5))
	if ds.SlotsPerDay() != 144 {
		t.Errorf("SlotsPerDay = %d", ds.SlotsPerDay())
	}
	if !ds.SlotTime(0).Equal(start) {
		t.Errorf("SlotTime(0) = %v", ds.SlotTime(0))
	}
	if got := ds.SlotTime(144); !got.Equal(start.Add(24 * time.Hour)) {
		t.Errorf("SlotTime(144) = %v", got)
	}
	if ds.RowByTowerID(101) != 1 || ds.RowByTowerID(99) != -1 {
		t.Error("RowByTowerID wrong")
	}
	agg, err := ds.AggregateRaw(nil)
	if err != nil {
		t.Fatal(err)
	}
	if agg[0] != 7 {
		t.Errorf("aggregate slot 0 = %g, want 7", agg[0])
	}
	if _, err := ds.AggregateRaw([]int{-1}); err == nil {
		t.Error("bad aggregate index should fail")
	}
	if _, err := ds.AggregateRaw([]int{}); !errors.Is(err, ErrEmptyDataset) {
		t.Error("empty aggregate index list should fail")
	}
}

func constSeries(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v + float64(i%5) // not constant so z-score is defined
	}
	return out
}

func TestDatasetValidate(t *testing.T) {
	var empty Dataset
	if err := empty.Validate(); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("empty validate: %v", err)
	}
	good := vectorizeRows(t, defaultOpts(), constSeries(7*144, 1))
	bad := *good
	bad.Days = 6
	if err := bad.Validate(); !errors.Is(err, ErrBadShape) {
		t.Errorf("bad days: %v", err)
	}
	bad = *good
	bad.Locations = nil
	if err := bad.Validate(); !errors.Is(err, ErrBadShape) {
		t.Errorf("missing locations: %v", err)
	}
	bad = *good
	bad.Raw = []linalg.Vector{{1, 2}}
	if err := bad.Validate(); !errors.Is(err, ErrBadShape) {
		t.Errorf("ragged raw: %v", err)
	}
	bad = *good
	bad.Normalized = []linalg.Vector{append(linalg.Vector{math.NaN()}, good.Normalized[0][1:]...)}
	if err := bad.Validate(); err == nil {
		t.Error("NaN row should fail validation")
	}
}
