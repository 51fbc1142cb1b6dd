package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/panicsafe"
	"repro/internal/pipeline"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/window"
)

// tripContext reports no error for its first tripAt Err calls and
// context.Canceled from then on — or panics with boom, when set — counting
// every call. Every stage of a modeling cycle polls Err at its work
// boundaries (the anomaly sweep and the forecast stage once before each
// row, on the goroutine that will process it), and those two stages are
// the last pollers of a cycle, so counting back from a full cycle's total
// places a cancellation or a worker panic inside either of them.
type tripContext struct {
	context.Context
	done   chan struct{}
	tripAt int64
	boom   any
	calls  atomic.Int64
}

func newTripContext(tripAt int64) *tripContext {
	return &tripContext{Context: context.Background(), done: make(chan struct{}), tripAt: tripAt}
}

func (c *tripContext) Done() <-chan struct{} { return c.done }

func (c *tripContext) Err() error {
	if c.calls.Add(1) > c.tripAt {
		if c.boom != nil {
			panic(c.boom)
		}
		return context.Canceled
	}
	return nil
}

// cancelHarness is a server with one published model and the poll count of
// that full cycle.
type cancelHarness struct {
	srv    *Server
	towers int64
	// polls is the number of ctx.Err calls of one complete RemodelNow; the
	// last towers+workers of them belong to the forecast stage, the
	// towers+workers before those to the anomaly sweep.
	polls int64
}

func newCancelHarness(t *testing.T, workers int) *cancelHarness {
	t.Helper()
	city, series := testCity(t, 48, 21)
	w := newTestWindow(t, city, 14)
	feedDays(w, city, series, 0, 15, nil)
	cfg := testConfig(city, w)
	cfg.Analyze.Workers = workers
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := newTripContext(math.MaxInt64)
	if err := srv.RemodelNow(count); err != nil {
		t.Fatal(err)
	}
	return &cancelHarness{srv: srv, towers: int64(srv.model().Towers), polls: count.calls.Load()}
}

// dataset is the window's dataset, the input of the published cycle.
func (h *cancelHarness) dataset(t *testing.T) *pipeline.Dataset {
	t.Helper()
	ds, err := h.srv.cfg.Window.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// inForecasts and inAnomalies are trip points in the middle of each stage.
func (h *cancelHarness) inForecasts() int64 { return h.polls - h.towers/2 }
func (h *cancelHarness) inAnomalies(workers int) int64 {
	return h.polls - (h.towers + int64(workers)) - h.towers/2
}

// untouched asserts the failed cycle left model #1 published and was
// counted as exactly one failed cycle.
func (h *cancelHarness) untouched(t *testing.T, what string) {
	t.Helper()
	if m := h.srv.model(); m == nil || m.Seq != 1 {
		t.Errorf("%s: published model is %+v, want #1 untouched", what, m)
	}
	if f, c := h.srv.met.modelFailures.Load(), h.srv.met.modelConsecFails.Load(); f != 1 || c != 1 {
		t.Errorf("%s: failures=%d consecutive=%d, want 1 and 1", what, f, c)
	}
}

// A cycle entered with a cancelled context publishes nothing.
func TestRemodelNowPreCancelled(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	h := newCancelHarness(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.srv.RemodelNow(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RemodelNow = %v, want context.Canceled", err)
	}
	h.untouched(t, "pre-cancelled")

	// The two per-tower stages on their own: nothing is processed.
	ds := h.dataset(t)
	trip := newTripContext(0)
	if fcs, err := h.srv.buildForecasts(trip, ds); !errors.Is(err, context.Canceled) || fcs != nil {
		t.Errorf("buildForecasts = %v, %v; want nil, context.Canceled", fcs, err)
	}
	if calls := trip.calls.Load(); calls > 2 {
		t.Errorf("buildForecasts polled %d times after a pre-cancelled context, want ≤ one per worker", calls)
	}
}

// A cancellation inside the anomaly sweep or the forecast stage fails the
// cycle from that stage within one row per worker, instead of finishing
// both stages and publishing.
func TestRemodelNowCancelMidRun(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	for _, workers := range []int{1, 2, 4} {
		for _, stage := range []string{"anomaly.detect_all", "forecast.backtest_fit"} {
			h := newCancelHarness(t, workers)
			tripAt := h.inForecasts()
			if stage == "anomaly.detect_all" {
				tripAt = h.inAnomalies(workers)
			}
			ctx := newTripContext(tripAt)
			err := h.srv.RemodelNow(ctx)
			if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "serve: "+stage) {
				t.Fatalf("workers %d: RemodelNow = %v, want context.Canceled from the %s", workers, err, stage)
			}
			if calls := ctx.calls.Load(); calls > tripAt+int64(workers) {
				t.Errorf("workers %d, %s: %d polls, want ≤ %d (the trip plus one per worker)", workers, stage, calls, tripAt+int64(workers))
			}
			h.untouched(t, stage)
		}
	}
}

// A panic on an anomaly or forecast pool worker fails the cycle with a
// *panicsafe.Error instead of killing the process.
func TestRemodelNowWorkerPanic(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	const workers = 2
	for _, stage := range []string{"anomaly.detect_all", "forecast.backtest_fit"} {
		h := newCancelHarness(t, workers)
		ctx := newTripContext(h.inForecasts())
		if stage == "anomaly.detect_all" {
			ctx = newTripContext(h.inAnomalies(workers))
		}
		ctx.boom = stage + " worker exploded"
		err := h.srv.RemodelNow(ctx)
		var pe *panicsafe.Error
		if !errors.As(err, &pe) || pe.Value != ctx.boom || !strings.Contains(err.Error(), "serve: "+stage) {
			t.Fatalf("RemodelNow = %v, want a *panicsafe.Error carrying %q from the %s", err, ctx.boom, stage)
		}
		h.untouched(t, stage)
	}
}

// With Analyze.Workers 1 both per-tower stages run on the calling
// goroutine: a panic there is not a worker panic, it unwinds through
// RemodelNow to the caller.
func TestRemodelNowSingleWorkerRunsInline(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	for _, stage := range []string{"anomaly.detect_all", "forecast.backtest_fit"} {
		h := newCancelHarness(t, 1)
		ctx := newTripContext(h.inForecasts())
		if stage == "anomaly.detect_all" {
			ctx = newTripContext(h.inAnomalies(1))
		}
		ctx.boom = stage + " exploded inline"
		func() {
			defer func() {
				if r := recover(); r != ctx.boom {
					t.Errorf("%s: recovered %v on the calling goroutine, want %q", stage, r, ctx.boom)
				}
			}()
			err := h.srv.RemodelNow(ctx)
			t.Errorf("%s: RemodelNow returned (%v) instead of panicking on the calling goroutine", stage, err)
		}()
	}
}

// The pooled forecast stage writes every row by index from that row alone:
// deep-equal to the serial loop it replaced for any worker count.
func TestBuildForecastsMatchesSerialOracle(t *testing.T) {
	h := newCancelHarness(t, 2)
	ds := h.dataset(t)
	want := buildForecastsOracle(h.srv, ds)
	for _, workers := range []int{1, 2, 4, 0} {
		h.srv.cfg.Analyze.Workers = workers
		got, err := h.srv.buildForecasts(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: forecasts differ from the serial loop", workers)
		}
	}
}

// A failure at any of the four stages is one failed cycle, counted once by
// the stage helper: failures and the consecutive-failure streak tick by
// exactly one, the error names the stage, nothing is counted as a skip and
// the published model stays. The window stage takes no context, so its
// failure is a window whose only tower never carried traffic (whole weeks,
// empty dataset); the other three are tripped through ctx.
func TestRemodelNowStageAccounting(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	const workers = 2
	h := newCancelHarness(t, workers)
	published := h.srv.model()
	ds := h.dataset(t)

	silent, err := window.New(window.Options{Start: ds.Start, SlotMinutes: ds.SlotMinutes, Days: 14})
	if err != nil {
		t.Fatal(err)
	}
	for _, day := range []int{0, 8} {
		at := ds.Start.Add(time.Duration(day) * 24 * time.Hour)
		silent.AddBatch([]trace.Record{{UserID: 1, TowerID: 1, Start: at, End: at.Add(time.Minute), Tech: trace.TechLTE}})
	}
	good := h.srv.cfg.Window

	for i, ctx := range [len(stageNames)]context.Context{
		context.Background(),
		newTripContext(0),
		newTripContext(h.inAnomalies(workers)),
		newTripContext(h.inForecasts()),
	} {
		h.srv.cfg.Window = good
		if i == 0 {
			h.srv.cfg.Window = silent
		}
		fails, streak, skips := h.srv.met.modelFailures.Load(), h.srv.met.modelConsecFails.Load(), h.srv.met.modelSkips.Load()
		err := h.srv.RemodelNow(ctx)
		if err == nil || !strings.HasPrefix(err.Error(), "serve: "+stageNames[i]+": ") {
			t.Errorf("stage %d: RemodelNow = %v, want an error naming %s", i, err, stageNames[i])
		}
		if i == 0 && !errors.Is(err, pipeline.ErrEmptyDataset) {
			t.Errorf("window stage failed with %v, want ErrEmptyDataset", err)
		}
		if i > 0 && !errors.Is(err, context.Canceled) {
			t.Errorf("%s failed with %v, want context.Canceled", stageNames[i], err)
		}
		if f, c := h.srv.met.modelFailures.Load(), h.srv.met.modelConsecFails.Load(); f != fails+1 || c != streak+1 {
			t.Errorf("%s: failures %d → %d, streak %d → %d; want one tick each", stageNames[i], fails, f, streak, c)
		}
		if got := h.srv.met.modelSkips.Load(); got != skips {
			t.Errorf("%s: a failed cycle was counted as a warm-up skip", stageNames[i])
		}
		if h.srv.model() != published {
			t.Errorf("%s: the failed cycle replaced the published model", stageNames[i])
		}
	}
}

// The live stage gauge and the benchmark report share one vocabulary: every
// stage name is a per_layer prefix of BENCHMARK.json with a duration metric.
func TestStageNamesAreBenchmarkLayers(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, l := range decl.PerLayer {
		layers[l.Name] = true
	}
	for _, name := range stageNames {
		if !layers[name+"_s"] {
			t.Errorf("stage %q has no %s_s entry in BENCHMARK.json per_layer", name, name)
		}
	}
}
