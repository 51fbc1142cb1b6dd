package pipeline

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// datasetsEqual reports whether two datasets are identical row for row.
func datasetsEqual(a, b *Dataset) error {
	if a.NumTowers() != b.NumTowers() || a.NumSlots() != b.NumSlots() ||
		a.Days != b.Days || a.SlotMinutes != b.SlotMinutes || !a.Start.Equal(b.Start) {
		return fmt.Errorf("shape mismatch: %d×%d/%dd vs %d×%d/%dd",
			a.NumTowers(), a.NumSlots(), a.Days, b.NumTowers(), b.NumSlots(), b.Days)
	}
	for i := 0; i < a.NumTowers(); i++ {
		if a.TowerIDs[i] != b.TowerIDs[i] {
			return fmt.Errorf("row %d tower %d vs %d", i, a.TowerIDs[i], b.TowerIDs[i])
		}
		if a.Locations[i] != b.Locations[i] {
			return fmt.Errorf("row %d location mismatch", i)
		}
		for j := range a.Raw[i] {
			if a.Raw[i][j] != b.Raw[i][j] {
				return fmt.Errorf("row %d raw slot %d: %g vs %g", i, j, a.Raw[i][j], b.Raw[i][j])
			}
			if a.Normalized[i][j] != b.Normalized[i][j] {
				return fmt.Errorf("row %d normalized slot %d: %g vs %g", i, j, a.Normalized[i][j], b.Normalized[i][j])
			}
		}
	}
	return nil
}

// Property: vectorizing a stream that arrives one record at a time
// (through the SourceFunc adapter) produces a dataset identical to
// vectorizing the slice in full batches, for random record batches
// including out-of-window records and towers without locations.
func TestVectorizeSourceMatchesRecordsProperty(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	towers := []trace.TowerInfo{
		{TowerID: 0, Location: geo.Point{Lat: 31.1, Lon: 121.4}},
		{TowerID: 1, Location: geo.Point{Lat: 31.2, Lon: 121.5}},
	} // towers 2–4 are missing from the metadata
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(200)
		records := make([]trace.Record, n)
		for i := range records {
			at := start.Add(time.Duration(rng.Intn(9*24*60)-60) * time.Minute)
			records[i] = rec(rng.Intn(5), rng.Intn(10), at, int64(1+rng.Intn(1e6)))
		}
		want, err := vectorizeRecords(records, towers, defaultOpts())
		if err != nil {
			t.Logf("slice path: %v", err)
			return false
		}
		pos := 0
		scalar := trace.SourceFunc(func() (trace.Record, error) {
			if pos == len(records) {
				return trace.Record{}, io.EOF
			}
			pos++
			return records[pos-1], nil
		})
		got, err := vectorizeSource(scalar, towers, defaultOpts())
		if err != nil {
			t.Logf("stream path: %v", err)
			return false
		}
		if err := datasetsEqual(want, got); err != nil {
			t.Logf("mismatch: %v", err)
			return false
		}
		for i, id := range got.TowerIDs {
			if id >= len(towers) && got.Locations[i] != (geo.Point{}) {
				t.Logf("tower %d has no metadata but location %v", id, got.Locations[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestVectorizeSourceErrors(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	if _, err := vectorizeSource(nil, nil, defaultOpts()); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := vectorizeSource(trace.SliceSource(nil), nil, defaultOpts()); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("empty source: got %v, want ErrEmptyDataset", err)
	}
	bad := defaultOpts()
	bad.SlotMinutes = 13
	if _, err := vectorizeSource(trace.SliceSource([]trace.Record{rec(1, 1, start, 1)}), nil, bad); err == nil {
		t.Error("bad slot minutes should fail")
	}

	// A source error mid-stream aborts the vectorization.
	boom := errors.New("boom")
	n := 0
	src := trace.SourceFunc(func() (trace.Record, error) {
		n++
		if n > 700 {
			return trace.Record{}, boom
		}
		return rec(n%3, n, start.Add(time.Duration(n)*time.Second), 10), nil
	})
	if _, err := vectorizeSource(src, nil, defaultOpts()); !errors.Is(err, boom) {
		t.Errorf("source error should propagate, got %v", err)
	}
}

func TestVectorizeSourceKeepsOutOfWindowTowers(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	// A tower whose only records fall outside the window still gets an
	// all-zero row, matching the slice path.
	records := []trace.Record{
		rec(1, 1, start.Add(time.Hour), 7),
		rec(9, 1, start.Add(-time.Hour), 100),
	}
	ds, err := vectorizeSource(trace.SliceSource(records), nil, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTowers() != 2 {
		t.Fatalf("towers = %d, want 2", ds.NumTowers())
	}
	row := ds.RowByTowerID(9)
	if row < 0 || ds.Raw[row].Sum() != 0 {
		t.Errorf("out-of-window tower should have an all-zero row")
	}
}

// --- Benchmarks: slice vs streaming ingestion ---------------------------

// genRecord deterministically synthesises record i of a bench workload
// spread over the given number of towers and days.
func genRecord(i, towers, days int) trace.Record {
	slotCount := days * 144
	slot := (i * 7919) % slotCount
	at := start.Add(time.Duration(slot) * 10 * time.Minute)
	return trace.Record{
		UserID:  i % 1000,
		Start:   at,
		End:     at.Add(time.Minute),
		TowerID: i % towers,
		Address: "addr",
		Bytes:   int64(1 + (i*31)%100000),
		Tech:    trace.TechLTE,
	}
}

// benchSource streams the same workload without ever materialising it.
type benchSource struct {
	i, n, towers, days int
}

func (s *benchSource) Next() (trace.Record, error) {
	if s.i >= s.n {
		return trace.Record{}, io.EOF
	}
	r := genRecord(s.i, s.towers, s.days)
	s.i++
	return r, nil
}

// benchScales covers three workload sizes; the largest emits ~2 million
// records over 500 towers, where the O(records) slice path's memory bill
// dwarfs the streaming path's O(towers × slots) accumulators.
var benchScales = []struct {
	name         string
	towers, days int
	recsPerTower int
}{
	{"50towers-7d", 50, 7, 400},
	{"200towers-14d", 200, 14, 1000},
	{"500towers-28d", 500, 28, 4000},
}

// BenchmarkIngestSlice measures the materialised path: build the full
// record slice, then vectorise it. Allocation cost is O(records).
func BenchmarkIngestSlice(b *testing.B) {
	for _, sc := range benchScales {
		b.Run(sc.name, func(b *testing.B) {
			opts := VectorizerOptions{Start: start, Days: sc.days}
			n := sc.towers * sc.recsPerTower
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				records := make([]trace.Record, n)
				for j := range records {
					records[j] = genRecord(j, sc.towers, sc.days)
				}
				if _, err := vectorizeRecords(records, nil, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngestStream measures the streaming path over the identical
// workload: records flow straight from the generator into the
// accumulators and are never materialised.
func BenchmarkIngestStream(b *testing.B) {
	for _, sc := range benchScales {
		b.Run(sc.name, func(b *testing.B) {
			opts := VectorizerOptions{Start: start, Days: sc.days}
			n := sc.towers * sc.recsPerTower
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src := &benchSource{n: n, towers: sc.towers, days: sc.days}
				if _, err := vectorizeSource(trace.SourceFunc(src.Next), nil, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
