package serve

// Tests for the self-healing behaviours: supervised loop restarts and
// budget exhaustion, the health state machine driving /readyz, and the
// hardened HTTP plane (limiter, per-request timeout, panic containment,
// SSE client cap, Prometheus exposition).

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/synth"
	"repro/internal/testutil"
)

// fastRestart is a supervisor policy for tests that burn a restart
// budget: two restarts, millisecond backoff.
var fastRestart = restartPolicy{budget: 2, backoff: time.Millisecond, maxBackoff: 2 * time.Millisecond}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSupervisorIngestBudgetExhaustionDegrades kills the ingest feed
// permanently: the supervisor must burn its whole restart budget with
// backoff, flip the loop dead, and the service must degrade — not die.
func TestSupervisorIngestBudgetExhaustionDegrades(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, series := testCity(t, 12, 21)
	w := newTestWindow(t, city, 14)
	feedDays(w, city, series, 0, 15, nil) // modelable before the feed dies

	stream := city.LogSource(series, synth.LogOptions{TimeMajor: true})
	defer stream.Close()
	cfg := testConfig(city, w)
	cfg.Source = faultinject.NewSource(stream, faultinject.SourceProfile{ErrAfter: 100})
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.restart = fastRestart
	srv.Start(context.Background())
	defer srv.Close()
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "ingest loop death", func() bool { return srv.ingestLoop.state.Load() == loopDead })
	if got := srv.ingestLoop.restarts.Load(); got != 2 {
		t.Errorf("ingest restarts = %d, want the full budget of 2", got)
	}
	if got := srv.met.ingestErrors.Load(); got != 3 {
		t.Errorf("ingest errors = %d, want 3 (first failure + 2 restarts)", got)
	}
	if h, reason := srv.healthNow(); h != Degraded {
		t.Errorf("health = %s (%s), want degraded", h, reason)
	}

	// Degraded keeps routing: /readyz 200, queries still answered.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("readyz while degraded: %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"health": "degraded"`) {
		t.Errorf("readyz body does not report degraded: %s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/towers", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("towers while degraded: %d, want 200", rec.Code)
	}
}

// TestWedgedRemodelFlipsReadyzStale is the acceptance scenario: the
// remodel loop dies (panics past its restart budget) and /readyz must
// flip to 503 immediately — healthNow is a pure function, so the flip is
// visible on the very next probe — while the query endpoints keep
// serving the last-known-good model.
func TestWedgedRemodelFlipsReadyzStale(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, series := testCity(t, 12, 21)
	w := newTestWindow(t, city, 14)
	feedDays(w, city, series, 0, 15, nil)
	srv, err := New(testConfig(city, w))
	if err != nil {
		t.Fatal(err)
	}
	srv.restart = restartPolicy{} // one strike: a zero budget allows no restart
	// Publish a good model first, then wedge every later cycle.
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.testRemodelHook = func() { panic("remodel dependency wedged") }
	srv.Start(context.Background())
	defer srv.Close()

	waitFor(t, "remodel loop death", func() bool { return srv.remodelLoop.state.Load() == loopDead })

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead remodel loop: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("stale readyz carries no Retry-After")
	}
	// Liveness is unaffected, and the last-good model still serves.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz with dead remodel loop: %d, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/towers", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("towers with dead remodel loop: %d, want 200 from the last-good model", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"health": "stale"`) {
		t.Error("towers response does not label the model stale")
	}
}

// TestRemodelTimeoutDegrades wedges one modeling cycle past
// RemodelTimeout: the cycle must fail (not freeze the loop) and the
// service must report itself degraded while the previous model serves.
func TestRemodelTimeoutDegrades(t *testing.T) {
	city, series := testCity(t, 12, 21)
	w := newTestWindow(t, city, 14)
	feedDays(w, city, series, 0, 15, nil)
	cfg := testConfig(city, w)
	cfg.RemodelTimeout = 5 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.testRemodelHook = func() { time.Sleep(20 * time.Millisecond) } // outlive the timeout
	srv.remodelOnce(context.Background())
	if got := srv.met.modelConsecFails.Load(); got != 1 {
		t.Fatalf("consecutive failures after timed-out cycle = %d, want 1", got)
	}
	if h, _ := srv.healthNow(); h != Degraded {
		t.Fatalf("health after timed-out cycle = %s, want degraded", h)
	}
	// A successful cycle clears the streak.
	srv.testRemodelHook = nil
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := srv.met.modelConsecFails.Load(); got != 0 {
		t.Fatalf("consecutive failures after recovery = %d, want 0", got)
	}
	if h, _ := srv.healthNow(); h != Healthy {
		t.Fatalf("health after recovery = %s, want healthy", h)
	}
}

func TestRequestLimiterRejectsExcess(t *testing.T) {
	city, series := testCity(t, 12, 21)
	w := newTestWindow(t, city, 14)
	feedDays(w, city, series, 0, 15, nil)
	srv, err := New(testConfig(city, w))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	for range maxConcurrent { // occupy every slot
		srv.limiter <- struct{}{}
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/towers", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated limiter: %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	// Probes bypass the limiter so a saturated service stays observable.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		rec = httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s under saturation: %d, want 200", path, rec.Code)
		}
	}
	<-srv.limiter
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/towers", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("freed limiter: %d, want 200", rec.Code)
	}
	if got := srv.met.reqRejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// Distinct clients arriving within one refill window leave the sweep
// nothing idle to drop; the table must still stay within maxRateClients.
func TestRateLimiterTableBounded(t *testing.T) {
	l := newRateLimiter(1, 1)
	now := time.Unix(1_700_000_000, 0)
	for i := range 5000 {
		if ok, _ := l.allow(fmt.Sprintf("10.0.%d.%d", i/256, i%256), now); !ok {
			t.Fatalf("client %d refused its first request", i)
		}
	}
	if n := len(l.buckets); n > maxRateClients {
		t.Fatalf("%d buckets after 5000 distinct clients, want at most %d", n, maxRateClients)
	}
}

func TestRequestTimeoutCutsOffSlowHandler(t *testing.T) {
	city, _ := testCity(t, 4, 8)
	cfg := testConfig(city, newTestWindow(t, city, 7))
	cfg.RequestTimeout = 10 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	slow := srv.timed(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // a wedged dependency, freed by the timeout
		close(released)
		fmt.Fprint(w, "too late")
	})
	rec := httptest.NewRecorder()
	slow(rec, httptest.NewRequest("GET", "/slow", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request: %d, want 503", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "too late") {
		t.Fatal("late handler write reached the client")
	}
	if got := srv.met.reqTimeouts.Load(); got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}
	<-released // the goroutine exits; CheckNoGoroutineLeak-friendly

	// A fast handler's buffered response flushes through intact.
	fast := srv.timed(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Fast", "yes")
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "quick")
	})
	rec = httptest.NewRecorder()
	fast(rec, httptest.NewRequest("GET", "/fast", nil))
	if rec.Code != http.StatusTeapot || rec.Body.String() != "quick" || rec.Header().Get("X-Fast") != "yes" {
		t.Fatalf("buffered response mangled: %d %q", rec.Code, rec.Body.String())
	}
}

func TestHandlerPanicBecomes500(t *testing.T) {
	city, _ := testCity(t, 4, 8)
	srv, err := New(testConfig(city, newTestWindow(t, city, 7)))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.hardened(func(w http.ResponseWriter, r *http.Request) { panic("handler bug") })
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d, want 500", rec.Code)
	}
	if got := srv.met.reqPanics.Load(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	// The limiter slot was released despite the panic.
	if len(srv.limiter) != 0 {
		t.Error("panicking request leaked a limiter slot")
	}
}

func TestSSEClientCap(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, _ := testCity(t, 4, 8)
	srv, err := New(testConfig(city, newTestWindow(t, city, 7)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := range maxSSEClients {
		sub, err := http.Get(ts.URL + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Body.Close()
		if sub.StatusCode != http.StatusOK {
			t.Fatalf("stream client %d: %d, want 200", i+1, sub.StatusCode)
		}
		buf := make([]byte, 1) // wait until the subscription is live
		if _, err := sub.Body.Read(buf); err != nil {
			t.Fatal(err)
		}
	}

	over, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, over.Body)
	over.Body.Close()
	if over.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream client %d: %d, want 503", maxSSEClients+1, over.StatusCode)
	}
	if got := srv.met.sseRejected.Load(); got != 1 {
		t.Errorf("sse rejected counter = %d, want 1", got)
	}
	if err := srv.Close(); err != nil { // wakes the subscribers' writers
		t.Fatal(err)
	}
}

func TestMetricsPrometheusExposition(t *testing.T) {
	city, series := testCity(t, 12, 21)
	w := newTestWindow(t, city, 14)
	feedDays(w, city, series, 0, 15, nil)
	srv, err := New(testConfig(city, w))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}

	get := func(target, accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", target, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", target, rec.Code)
		}
		return rec
	}

	// Explicit format and Accept negotiation both select Prometheus.
	for _, rec := range []*httptest.ResponseRecorder{
		get("/metrics?format=prom", ""),
		get("/metrics", "text/plain;version=0.0.4"),
	} {
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("prometheus content type: %s", ct)
		}
		body := rec.Body.String()
		for _, want := range []string{
			"# TYPE repro_ingest_records_total counter",
			"# TYPE repro_health gauge",
			`repro_health{state="healthy"} 1`,
			`repro_loop_restarts_total{loop="remodel"} 0`,
			"repro_model_seq 1",
			"repro_snapshot_saves_total 0",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("prometheus exposition missing %q", want)
			}
		}
	}

	// Default and ?format=json stay JSON.
	for _, rec := range []*httptest.ResponseRecorder{
		get("/metrics", ""),
		get("/metrics?format=json", "text/plain"),
	} {
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("json content type: %s", ct)
		}
		for _, want := range []string{`"health"`, `"loops"`, `"snapshots"`, `"consecutive_failures"`} {
			if !strings.Contains(rec.Body.String(), want) {
				t.Errorf("metrics JSON missing %s", want)
			}
		}
	}
}
