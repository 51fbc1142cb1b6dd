package window

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

var t0 = time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC)

// rec builds a record carrying b bytes for tower id in the slot starting
// minutes after t0.
func rec(id int, minutes int, b int64) trace.Record {
	start := t0.Add(time.Duration(minutes) * time.Minute)
	return trace.Record{
		UserID:  1,
		Start:   start,
		End:     start.Add(time.Minute),
		TowerID: id,
		Bytes:   b,
		Tech:    Tech3GForTest,
	}
}

// Tech3GForTest keeps the test records valid without importing the
// constant at every call site.
const Tech3GForTest = trace.Tech3G

// feedSeries streams per-tower slot series into the window as one record
// per non-zero slot, in chronological order across towers.
func feedSeries(w *Window, series map[int][]float64, slotMinutes int) {
	slots := 0
	for _, s := range series {
		if len(s) > slots {
			slots = len(s)
		}
	}
	for slot := 0; slot < slots; slot++ {
		for id, s := range series {
			if slot < len(s) && s[slot] != 0 {
				w.AddBatch([]trace.Record{rec(id, slot*slotMinutes, int64(s[slot]))})
			}
		}
	}
}

// genSeries builds deterministic pseudo-random daily-periodic series.
func genSeries(seed int64, towers, days, spd int) map[int][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[int][]float64, towers)
	for id := 0; id < towers; id++ {
		s := make([]float64, days*spd)
		amp := 500 + rng.Float64()*2000
		for i := range s {
			hour := float64(i%spd) / float64(spd) * 24
			v := amp * (1 + math.Sin((hour-6)/24*2*math.Pi))
			if rng.Float64() < 0.1 {
				v = 0 // sparse quiet slots
			}
			s[i] = math.Round(v)
		}
		out[id] = s
	}
	return out
}

func TestWindowStatsMatchDirectComputation(t *testing.T) {
	opts := Options{Start: t0, SlotMinutes: 60, Days: 7}
	w, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	spd := 24
	series := genSeries(1, 3, 9, spd) // 9 days: 2 days slide out of the 7+1-day ring
	feedSeries(w, series, 60)

	sum := w.Summary()
	if sum.Towers != 3 {
		t.Fatalf("towers = %d", sum.Towers)
	}
	if sum.CompleteDays != 8 { // latest slot is day 9's last slot; 8 complete days before it
		t.Errorf("complete days = %d, want 8", sum.CompleteDays)
	}

	// The ring spans (Days+1)*spd slots ending at the latest slot; compute
	// the expected moments directly from the series tail.
	ringSlots := (7 + 1) * spd
	total := 9 * spd
	for id, s := range series {
		var es, esq float64
		for i := total - ringSlots; i < total; i++ {
			es += s[i]
			esq += s[i] * s[i]
		}
		mean := es / float64(ringSlots)
		std := math.Sqrt(esq/float64(ringSlots) - mean*mean)
		got, ok := w.TowerStats(id)
		if !ok {
			t.Fatalf("tower %d missing", id)
		}
		if math.Abs(got.Mean-mean) > 1e-6*math.Max(1, mean) {
			t.Errorf("tower %d mean = %g, want %g", id, got.Mean, mean)
		}
		if math.Abs(got.Std-std) > 1e-6*math.Max(1, std) {
			t.Errorf("tower %d std = %g, want %g", id, got.Std, std)
		}
		if got.LastSlotBytes != s[total-1] {
			t.Errorf("tower %d last slot = %g, want %g", id, got.LastSlotBytes, s[total-1])
		}
	}
}

func TestWindowDatasetMatchesBatchVectorizer(t *testing.T) {
	opts := Options{Start: t0, SlotMinutes: 60, Days: 7}
	w, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// A zero slot scores at most 1/relScaleFloor = 10 against its baseline,
	// so at this threshold only the spike below can quarantine a tower.
	w.SetGuards(Guards{Quarantine: QuarantineOptions{ZThreshold: 50}})
	spd := 24
	days := 10 // 10 days of feed; the dataset must be days 3..9 (last 7 complete)
	series := genSeries(2, 6, days, spd)
	// Two towers in the middle of the ID order never reach the dataset, so
	// the rows after them are filled, and compacted, one place up: tower 1
	// is quarantined (it spikes through the last six slots of the feed,
	// after the modeled window) and tower 3 is silent from the third day on,
	// so its extracted window is all zeros.
	for s := days*spd - 6; s < days*spd; s++ {
		series[1][s] = 5e6
	}
	for s := 2 * spd; s < days*spd; s++ {
		series[3][s] = 0
	}
	w.SetLocations([]trace.TowerInfo{
		{TowerID: 0, Location: geo.Point{Lat: 31.2, Lon: 121.5}},
		{TowerID: 4, Location: geo.Point{Lat: 31.3, Lon: 121.4}},
	})
	feedSeries(w, series, 60)
	if st, _ := w.TowerStats(1); !st.Quarantined || w.Summary().Quarantined != 1 {
		t.Fatalf("want exactly tower 1 quarantined, got %+v", w.Summary())
	}

	ds, err := w.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Days != 7 {
		t.Fatalf("dataset days = %d, want 7", ds.Days)
	}
	// The feed's latest slot is day 10's last slot, so the last complete
	// day boundary is the end of day 9 and the window is days 3..9.
	endDay := (days*spd - 1) / spd // complete days
	startSlot := (endDay - 7) * spd
	wantStart := t0.Add(time.Duration(startSlot) * time.Hour)
	if !ds.Start.Equal(wantStart) {
		t.Fatalf("dataset start = %v, want %v", ds.Start, wantStart)
	}

	// Build the reference dataset through the batch vectorizer on the
	// same suffix of the ground-truth series.
	var inputs []pipeline.SeriesInput
	for _, id := range []int{0, 2, 3, 4, 5} { // tower 3 falls to MinActiveSlots in the reference too
		inputs = append(inputs, pipeline.SeriesInput{
			TowerID:  id,
			Location: map[int]geo.Point{0: {Lat: 31.2, Lon: 121.5}, 4: {Lat: 31.3, Lon: 121.4}}[id],
			Bytes:    series[id][startSlot : startSlot+7*spd],
		})
	}
	want, err := pipeline.VectorizeSeries(inputs, pipeline.VectorizerOptions{
		Start:          wantStart,
		Days:           7,
		SlotMinutes:    60,
		MinActiveSlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.TowerIDs, []int{0, 2, 4, 5}) || !reflect.DeepEqual(want.TowerIDs, ds.TowerIDs) {
		t.Fatalf("towers = %v (reference %v), want [0 2 4 5]", ds.TowerIDs, want.TowerIDs)
	}
	for i := range want.TowerIDs {
		if ds.TowerIDs[i] != want.TowerIDs[i] {
			t.Fatalf("row %d tower = %d, want %d", i, ds.TowerIDs[i], want.TowerIDs[i])
		}
		if ds.Locations[i] != want.Locations[i] {
			t.Errorf("row %d location differs", i)
		}
		for j := range want.Raw[i] {
			if ds.Raw[i][j] != want.Raw[i][j] {
				t.Fatalf("row %d slot %d: %g vs %g", i, j, ds.Raw[i][j], want.Raw[i][j])
			}
			if ds.Normalized[i][j] != want.Normalized[i][j] {
				t.Fatalf("row %d slot %d normalized differs", i, j)
			}
		}
	}
}

func TestWindowWarmUpAndDrops(t *testing.T) {
	w, err := New(Options{Start: t0, SlotMinutes: 60, Days: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Dataset(); !errors.Is(err, ErrWarmingUp) {
		t.Fatalf("empty window: err = %v, want ErrWarmingUp", err)
	}
	// 6 complete days is still warming up (needs a whole week).
	series := genSeries(3, 2, 7, 24)
	feedSeries(w, series, 60) // latest slot = day 7's last → 6 complete days
	if _, err := w.Dataset(); !errors.Is(err, ErrWarmingUp) {
		t.Fatalf("6 complete days: err = %v, want ErrWarmingUp", err)
	}
	// One more slot completes day 7.
	w.AddBatch([]trace.Record{rec(0, 7*24*60, 100)})
	if _, err := w.Dataset(); err != nil {
		t.Fatalf("7 complete days: %v", err)
	}

	// Records before Start and records older than the ring are dropped.
	before := w.Summary().Dropped
	old := rec(0, 0, 50)
	old.Start = t0.Add(-time.Hour)
	w.AddBatch([]trace.Record{old})
	w.AddBatch([]trace.Record{rec(1, 0, 50)})  // slot 0 is still inside the (Days+1)-day ring: accepted
	w.AddBatch([]trace.Record{rec(2, -60, 0)}) // before Start via negative minutes: dropped
	sum := w.Summary()
	if sum.Dropped != before+2 {
		t.Errorf("dropped = %d, want %d", sum.Dropped, before+2)
	}
}

func TestWindowEvictionKeepsMomentsExact(t *testing.T) {
	// Feed far more days than the ring holds and verify the incremental
	// moments equal a fresh recomputation from the surviving slots —
	// i.e. eviction subtracted exactly what was added.
	w, err := New(Options{Start: t0, SlotMinutes: 360, Days: 7}) // 4 slots/day
	if err != nil {
		t.Fatal(err)
	}
	spd := 4
	days := 40
	series := genSeries(4, 2, days, spd)
	feedSeries(w, series, 360)
	ringSlots := (7 + 1) * spd
	total := days * spd
	for id, s := range series {
		var es, esq float64
		for i := total - ringSlots; i < total; i++ {
			es += s[i]
			esq += s[i] * s[i]
		}
		mean := es / float64(ringSlots)
		got, _ := w.TowerStats(id)
		if math.Abs(got.Mean-mean) > 1e-9*math.Max(1, mean) {
			t.Errorf("tower %d mean drifted: %g vs %g", id, got.Mean, mean)
		}
	}
}

func TestSnapshotRoundTripIdenticalState(t *testing.T) {
	// Property: snapshot → restore → snapshot produces identical bytes,
	// and a restored window re-models to the identical dataset — across
	// several random feeds and cut points.
	for trial := int64(0); trial < 5; trial++ {
		opts := Options{Start: t0, SlotMinutes: 60, Days: 7}
		w, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		spd := 24
		days := 8 + int(trial)
		series := genSeries(10+trial, 3, days, spd)
		feedSeries(w, series, 60)

		var snap1 bytes.Buffer
		if err := w.WriteSnapshot(&snap1); err != nil {
			t.Fatal(err)
		}
		restored, err := DecodeSnapshot(snap1.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var snap2 bytes.Buffer
		if err := restored.WriteSnapshot(&snap2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
			t.Fatalf("trial %d: restored snapshot differs from original", trial)
		}

		// Both windows keep ingesting the same tail and must re-model to
		// bit-identical datasets (the kill/restart resume property).
		tail := genSeries(100+trial, 3, 2, spd)
		for id, s := range tail {
			for i, v := range s {
				if v != 0 {
					r := rec(id, (days*spd+i)*60, int64(v))
					w.AddBatch([]trace.Record{r})
					restored.AddBatch([]trace.Record{r})
				}
			}
		}
		ds1, err := w.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		ds2, err := restored.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		if ds1.NumTowers() != ds2.NumTowers() || ds1.Days != ds2.Days || !ds1.Start.Equal(ds2.Start) {
			t.Fatalf("trial %d: dataset shapes differ", trial)
		}
		for i := range ds1.Raw {
			for j := range ds1.Raw[i] {
				if ds1.Raw[i][j] != ds2.Raw[i][j] || ds1.Normalized[i][j] != ds2.Normalized[i][j] {
					t.Fatalf("trial %d: dataset row %d slot %d differs", trial, i, j)
				}
			}
		}
		// Counters resumed too.
		s1, s2 := w.Summary(), restored.Summary()
		if s1 != s2 {
			t.Fatalf("trial %d: summaries differ: %+v vs %+v", trial, s1, s2)
		}
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("not a snapshot")); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("garbage: err = %v, want ErrBadSnapshot", err)
	}
	// A valid gob stream that is not a window snapshot.
	var buf bytes.Buffer
	w, _ := New(Options{Start: t0})
	if err := w.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the magic in place: find and flip a byte of the string.
	idx := bytes.Index(raw, []byte(snapshotMagic))
	if idx < 0 {
		t.Fatal("magic not found in frame")
	}
	raw[idx] ^= 0xff
	if _, err := DecodeSnapshot(raw); err == nil {
		t.Error("corrupted magic accepted")
	}
}

// A snapshot streamed to a real file and read back whole restores the
// window: the shape serve.SnapshotStore gives WriteSnapshot/DecodeSnapshot.
func TestSaveLoadFile(t *testing.T) {
	w, err := New(Options{Start: t0, SlotMinutes: 60, Days: 7})
	if err != nil {
		t.Fatal(err)
	}
	feedSeries(w, genSeries(7, 2, 8, 24), 60)
	path := t.TempDir() + "/window.snap"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary() != w.Summary() {
		t.Errorf("loaded summary differs")
	}
	if _, err := DecodeSnapshot(nil); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("empty file: err = %v, want ErrBadSnapshot", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []Options{
		{},                                     // missing Start
		{Start: t0, SlotMinutes: 7},            // does not divide 1440
		{Start: t0, Days: 10},                  // not a multiple of 7
		{Start: t0, SlotMinutes: -10},          // negative granularity
		{Start: t0, SlotMinutes: 60, Days: -7}, // negative window
	}
	for i, opts := range cases {
		if _, err := New(opts); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, opts)
		}
	}
	if w, err := New(Options{Start: t0}); err != nil || w.Options().SlotMinutes != 10 || w.Options().Days != 7 {
		t.Errorf("defaults not applied: %v %+v", err, w.Options())
	}
}

// Horizon is exactly the oldest start add admits: a record there is
// ingested, one a nanosecond earlier dropped. It is the zero time before
// the first record and Options.Start until the ring has filled, and a
// record the skew guard drops does not move it.
func TestHorizonIsOldestAdmittedStart(t *testing.T) {
	w, err := New(Options{Start: t0, SlotMinutes: 60, Days: 7})
	if err != nil {
		t.Fatal(err)
	}
	w.SetGuards(Guards{MaxFutureSkew: 14 * 24 * time.Hour})
	if h := w.Horizon(); !h.IsZero() {
		t.Fatalf("horizon %v before the first record, want the zero time", h)
	}
	admits := func(start time.Time) bool {
		before := w.Summary().Ingested
		r := rec(1, 0, 1)
		r.Start, r.End = start, start
		w.AddBatch([]trace.Record{r})
		return w.Summary().Ingested > before
	}
	for _, minutes := range []int{0, 90, 3 * 24 * 60, 8*24*60 - 1, 8 * 24 * 60, 8*24*60 + 59, 20*24*60 + 30} {
		w.AddBatch([]trace.Record{rec(2, minutes, 1)})
		h := w.Horizon()
		if want := t0.Add(max(time.Duration(minutes)*time.Minute-8*24*time.Hour+time.Hour, 0)).Truncate(time.Hour); !h.Equal(want) {
			t.Fatalf("clock at +%d min: horizon %v, want %v", minutes, h, want)
		}
		if h.After(t0) && admits(h.Add(-time.Nanosecond)) {
			t.Fatalf("clock at +%d min: a record a nanosecond before the horizon %v was admitted", minutes, h)
		}
		if !admits(h) {
			t.Fatalf("clock at +%d min: a record at the horizon %v was dropped", minutes, h)
		}
	}
	h := w.Horizon()
	if admits(h.Add(30 * 24 * time.Hour)) {
		t.Fatal("the skew guard admitted a record a month ahead")
	}
	if !w.Horizon().Equal(h) {
		t.Fatalf("a record the skew guard dropped moved the horizon from %v to %v", h, w.Horizon())
	}
}
