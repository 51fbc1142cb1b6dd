package serve

// Tests for the two-goroutine ingest attempt (runIngest): the producer
// that pulls the source ahead is joined on every way out — feed
// exhaustion, Close with the queue full, Close with the producer parked
// inside the source, a burnt restart budget — and a failing source loses
// none of the records it had handed out.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/panicsafe"
	"repro/internal/synth"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// endlessSource hands out full batches of distinct valid records forever,
// a slot's worth of trace time per batch.
type endlessSource struct {
	city *synth.City
	n    int
}

func (e *endlessSource) NextBatch(dst []trace.Record) (int, error) {
	cfg := e.city.Config
	start := cfg.Start.Add(time.Duration(e.n) * time.Duration(cfg.SlotMinutes) * time.Minute)
	e.n++
	for i := range dst {
		dst[i] = trace.Record{
			UserID: i, TowerID: e.city.Towers[i%len(e.city.Towers)].ID,
			Start: start, End: start.Add(time.Minute), Bytes: 1, Tech: trace.TechLTE,
		}
	}
	return len(dst), nil
}

// parkedSource blocks every pull until its context ends, the way a paced
// replay or a quiet network feed does, and reports the first pull.
type parkedSource struct {
	ctx     context.Context
	entered chan struct{}
}

func (p *parkedSource) NextBatch([]trace.Record) (int, error) {
	select {
	case p.entered <- struct{}{}:
	default:
	}
	<-p.ctx.Done()
	return 0, p.ctx.Err()
}

func TestIngestPipelineLifecycleLeakFree(t *testing.T) {
	city, series := testCity(t, 12, 10)

	t.Run("feed exhaustion", func(t *testing.T) {
		testutil.CheckNoGoroutineLeak(t)
		stream := city.LogSource(series, synth.LogOptions{TimeMajor: true})
		defer stream.Close()
		cfg := testConfig(city, newTestWindow(t, city, 7))
		cfg.Source = stream
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(context.Background())
		defer srv.Close()
		waitFor(t, "the ingest loop to finish the feed", func() bool { return srv.ingestLoop.state.Load() == loopDone })
		if got, sum := srv.met.ingestRecords.Load(), cfg.Window.Summary(); got == 0 || got != sum.Ingested+sum.Dropped {
			t.Errorf("%d records counted by the ingest loop, window saw %d + %d", got, sum.Ingested, sum.Dropped)
		}
		if errs, restarts := srv.met.ingestErrors.Load(), srv.ingestLoop.restarts.Load(); errs != 0 || restarts != 0 {
			t.Errorf("a clean feed end counted %d errors and %d restarts", errs, restarts)
		}
	})

	t.Run("close with a full queue", func(t *testing.T) {
		testutil.CheckNoGoroutineLeak(t)
		cfg := testConfig(city, newTestWindow(t, city, 7))
		cfg.Source = &endlessSource{city: city}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(context.Background())
		// The source costs nothing, so the producer runs into a full
		// rotation behind the cleaner and the window.
		waitFor(t, "the producer to wait for a free buffer", func() bool { return srv.met.ingestWaits.Producer.Load() > 0 })
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if st := srv.ingestLoop.state.Load(); st != loopDone {
			t.Errorf("ingest loop is %s after Close, want done", loopStateName(st))
		}
	})

	t.Run("close while the producer is parked in the source", func(t *testing.T) {
		testutil.CheckNoGoroutineLeak(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &parkedSource{ctx: ctx, entered: make(chan struct{}, 1)}
		cfg := testConfig(city, newTestWindow(t, city, 7))
		cfg.Source = src
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(ctx)
		<-src.entered
		// The shutdown cmd/served performs: the context the source was built
		// on ends, then Close waits for the loops.
		began := time.Now()
		cancel()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(began); took > 2*time.Second {
			t.Errorf("Close took %v with the producer parked in a source that honours ctx", took)
		}
		if errs := srv.met.ingestErrors.Load(); errs != 0 {
			t.Errorf("shutdown counted %d ingest errors", errs)
		}
	})

	// A feed that panics on every pull burns the restart budget the way a
	// failing one does (TestSupervisorIngestBudgetExhaustionDegrades): the
	// panic the producer recovered reaches the supervisor once per attempt.
	t.Run("restart budget burn by a panicking source", func(t *testing.T) {
		testutil.CheckNoGoroutineLeak(t)
		stream := city.LogSource(series, synth.LogOptions{TimeMajor: true})
		defer stream.Close()
		cfg := testConfig(city, newTestWindow(t, city, 7))
		cfg.Source = faultinject.NewSource(stream, faultinject.SourceProfile{PanicAfter: 100})
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.restart = fastRestart
		srv.Start(context.Background())
		defer srv.Close()
		waitFor(t, "ingest loop death", func() bool { return srv.ingestLoop.state.Load() == loopDead })
		if got := srv.ingestLoop.restarts.Load(); got != 2 {
			t.Errorf("ingest restarts = %d, want the full budget of 2", got)
		}
		if got := srv.met.ingestErrors.Load(); got != 3 {
			t.Errorf("ingest errors = %d, want 3 (first failure + 2 restarts)", got)
		}
		var pe *panicsafe.Error
		if last := srv.ingestLoop.LastErr(); !errors.As(last, &pe) {
			t.Errorf("last ingest error %v, want the recovered panic", last)
		}
	})
}

// TestIngestPipelineSourceFaultLosesNothing: a feed that fails once
// mid-stream and then resumes costs one restart and no record — every
// record the source handed out was either removed by that attempt's
// cleaner or reached the window.
func TestIngestPipelineSourceFaultLosesNothing(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, series := testCity(t, 12, 10)
	opts := synth.LogOptions{TimeMajor: true}
	const errAfter = 3*trace.DefaultBatchSize + 77 // inside the fourth batch

	// What the two attempts' cleaners remove: each starts with empty
	// dedup state, one at the head of the feed and one at the fault.
	ref := city.LogSource(series, opts)
	all, err := trace.Collect(ref)
	ref.Close()
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, part := range [][]trace.Record{all[:errAfter], all[errAfter:]} {
		cleaned := trace.CleanSource(trace.SliceSource(part))
		if err := trace.ForEachBatch(cleaned, func([]trace.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		removed += cleaned.Stats().Input - cleaned.Stats().Output
	}
	if removed == 0 {
		t.Fatal("the fixture feed has nothing for the cleaner to remove")
	}

	stream := city.LogSource(series, opts)
	defer stream.Close()
	src := faultinject.NewSource(stream, faultinject.SourceProfile{ErrAfter: errAfter, Transient: true})
	w := newTestWindow(t, city, 7)
	cfg := testConfig(city, w)
	cfg.Source = src
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.restart = fastRestart
	srv.Start(context.Background())
	defer srv.Close()
	waitFor(t, "the resumed feed to end", func() bool { return srv.ingestLoop.state.Load() == loopDone })

	if errs, restarts := srv.met.ingestErrors.Load(), srv.ingestLoop.restarts.Load(); errs != 1 || restarts != 1 {
		t.Errorf("%d ingest errors and %d restarts, want one of each", errs, restarts)
	}
	if !errors.Is(srv.ingestLoop.LastErr(), faultinject.ErrInjected) {
		t.Errorf("last ingest error %v, want the injected one", srv.ingestLoop.LastErr())
	}
	sum := w.Summary()
	if src.Delivered() != len(all) {
		t.Fatalf("the source handed out %d of %d records", src.Delivered(), len(all))
	}
	if sum.Dropped != 0 {
		t.Fatalf("the window dropped %d records of an in-order feed", sum.Dropped)
	}
	if got := int(sum.Ingested) + removed; got != len(all) {
		t.Errorf("window ingested %d + cleaners removed %d = %d, source handed out %d: %d lost", sum.Ingested, removed, got, len(all), len(all)-got)
	}
	if got := srv.met.ingestRecords.Load(); got != sum.Ingested {
		t.Errorf("ingest loop counted %d records, window %d", got, sum.Ingested)
	}
}
