package serve

// Tests for the ingest loop's dedup state, which the window's admission
// horizon bounds (runIngest): forgetting behind the horizon changes no
// bit of what the window hands to modeling, and the state stays flat
// however long the feed runs.

import (
	"context"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/window"
)

// serviceWindow is a window with the guards cmd/served sets by default.
func serviceWindow(tb testing.TB, start time.Time, days int) *window.Window {
	tb.Helper()
	w, err := window.New(window.Options{Start: start, SlotMinutes: 10, Days: days})
	if err != nil {
		tb.Fatal(err)
	}
	w.SetGuards(window.Guards{MaxFutureSkew: 24 * time.Hour, Quarantine: window.QuarantineOptions{ZThreshold: 8}})
	return w
}

// A synthetic city's time-major log, three ring spans long, with extra
// copies of its records — duplicates and larger amendments — re-sent at
// every lag from none to past the ring, and records timestamped days
// ahead of the clock, goes through the real ingest loop. The window must
// end up exactly as one fed by a cleaner that never forgets.
func TestIngestHorizonEvictionKeepsDataset(t *testing.T) {
	const windowDays = 7
	city, series := testCity(t, 24, 3*(windowDays+1))
	stream := city.LogSource(series, synth.LogOptions{TimeMajor: true})
	logs, err := trace.Collect(stream)
	stream.Close()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ring := len(logs) / 3 // records per ring span, about
	late := make(map[int][]trace.Record)
	for i := 0; i < len(logs); i += 7 {
		r := logs[i]
		switch rng.Intn(3) {
		case 0: // an exact duplicate
		case 1: // a larger copy: the window must get the delta, once
			r.Bytes += 1 + rng.Int63n(1000)
		case 2: // a record from days ahead of the clock, and its own copy
			ahead := r
			ahead.Start = r.Start.Add(time.Duration(2+rng.Intn(5)) * 24 * time.Hour)
			ahead.End = ahead.Start.Add(time.Minute)
			late[i] = append(late[i], ahead)
			r = ahead
		}
		at := i + rng.Intn(3*ring/2)
		if rng.Intn(8) == 0 {
			at = i // no lag at all
		}
		late[at] = append(late[at], r)
	}
	var feed []trace.Record
	for i, r := range logs {
		feed = append(feed, r)
		feed = append(feed, late[i]...)
	}

	live := serviceWindow(t, city.Config.Start, windowDays)
	srv, err := New(Config{Window: live, Source: trace.SliceSource(feed)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.runIngest(context.Background()); err != nil {
		t.Fatal(err)
	}
	exact := serviceWindow(t, city.Config.Start, windowDays)
	drainInto(t, exact, trace.CleanSource(trace.SliceSource(feed)))

	got, want := live.Summary(), exact.Summary()
	if got.Ingested != want.Ingested || got.DroppedFuture != want.DroppedFuture {
		t.Errorf("ingest loop's window: %d ingested, %d dropped as future; never-forgetting cleaner's: %d, %d",
			got.Ingested, got.DroppedFuture, want.Ingested, want.DroppedFuture)
	}
	if got.Dropped <= want.Dropped {
		t.Errorf("the window dropped %d records behind the ingest loop's cleaner and %d behind one that never forgets: nothing was forgotten", got.Dropped, want.Dropped)
	}
	gotDS, err := live.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	wantDS, err := exact.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDS, wantDS) {
		t.Error("the ingest loop's window hands modeling a different dataset than one fed by a cleaner that never forgets")
	}
}

// heapSource is a time-major feed of distinct connections, perSlot per
// tower per ten-minute slot. After the first mid records and at the end,
// it waits until the ingest loop has taken in every record emitted so far
// (ingested reports how many), so that the loop is idle but still holds
// its cleaner, and records the live heap.
type heapSource struct {
	start                 time.Time
	towers, perSlot, days int
	mid                   int
	ingested              func() uint64
	n                     int // records emitted
	heapAtMid, heapAtEnd  uint64
}

func (h *heapSource) perDay() int { return 144 * h.towers * h.perSlot }
func (h *heapSource) total() int  { return h.days * h.perDay() }

func (h *heapSource) settledHeap() uint64 {
	for h.ingested() < uint64(h.n) {
		time.Sleep(time.Millisecond)
	}
	return liveHeap()
}

func (h *heapSource) NextBatch(dst []trace.Record) (int, error) {
	if h.n == h.mid && h.heapAtMid == 0 {
		h.heapAtMid = h.settledHeap()
	}
	if h.n == h.total() {
		if h.heapAtEnd == 0 {
			h.heapAtEnd = h.settledHeap()
		}
		return 0, io.EOF
	}
	out := 0
	for ; out < len(dst) && h.n < h.total() && (h.n != h.mid || h.heapAtMid != 0); h.n++ {
		slot, rest := h.n/(h.towers*h.perSlot), h.n%(h.towers*h.perSlot)
		start := h.start.Add(time.Duration(slot)*10*time.Minute + time.Duration(rest%h.perSlot)*time.Second)
		dst[out] = trace.Record{
			UserID: rest % h.perSlot, TowerID: rest / h.perSlot,
			Start: start, End: start.Add(time.Minute), Bytes: 100, Tech: trace.TechLTE,
		}
		out++
	}
	return out, nil
}

// The ingest loop's dedup state holds the window's span of connections,
// not the feed's. The feed is 2 M distinct connections over more than
// three spans of a 14-day window's ring (15 days). Over the whole feed,
// the live heap may grow by (ring days + 2) days of connections — the
// ring, a day between sweeps, and the hour of a cell — at 32 B per table
// slot and 8/3 slots per connection, since a table is kept at most
// three-quarters full and is at least three-eighths full once it has
// grown. Over the last ring span it may grow by one day of connections
// at most. A cleaner that keeps every connection grows with the feed.
func TestIngestDedupStateBoundedByHorizon(t *testing.T) {
	if raceEnabled {
		t.Skip("live-heap figures are meaningless under the race detector")
	}
	const windowDays, ringDays = 14, 15
	const connBytes = 32 * 8 / 3
	src := &heapSource{start: time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC), towers: 100, perSlot: 3, days: 3*ringDays + 3}
	src.mid = (src.days - ringDays) * src.perDay()
	w := serviceWindow(t, src.start, windowDays)
	// Give every tower its ring before the baseline: the window's own
	// memory is fixed, and not what this test bounds.
	warm := make([]trace.Record, src.towers)
	for i := range warm {
		warm[i] = trace.Record{UserID: 1 << 20, TowerID: i, Start: src.start, End: src.start, Bytes: 1, Tech: trace.TechLTE}
	}
	w.AddBatch(warm)
	srv, err := New(Config{Window: w, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	src.ingested = srv.met.ingestRecords.Load
	before := liveHeap()
	if err := srv.runIngest(context.Background()); err != nil {
		t.Fatal(err)
	}
	if src.total() < 2_000_000 {
		t.Fatalf("the feed has %d records, want at least 2 M", src.total())
	}
	mb := func(b int64) float64 { return float64(b) / 1e6 }
	grown, lastSpan := int64(src.heapAtEnd)-int64(before), int64(src.heapAtEnd)-int64(src.heapAtMid)
	ceiling, spanCeiling := int64(src.perDay()*connBytes*(ringDays+2)), int64(src.perDay()*connBytes)
	t.Logf("%d records over %d days: live heap grew %.1f MB (%.1f B per record; ceiling %.1f MB), %.1f MB over the last %d days (ceiling %.1f MB)",
		src.total(), src.days, mb(grown), float64(grown)/float64(src.total()), mb(ceiling), mb(lastSpan), ringDays, mb(spanCeiling))
	if grown > ceiling {
		t.Errorf("live heap grew %.1f MB over the feed, more than the %.1f MB of %d days of connections", mb(grown), mb(ceiling), ringDays+2)
	}
	if lastSpan > spanCeiling {
		t.Errorf("live heap grew %.1f MB over the last ring span, more than the %.1f MB of a day of connections", mb(lastSpan), mb(spanCeiling))
	}
}
