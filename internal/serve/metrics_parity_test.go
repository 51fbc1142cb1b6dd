package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// metricsFixture is a server on which every operational number /metrics
// reports is non-zero, and distinct wherever a cross-wired reader could
// otherwise hide: two accepted generations, a manual rollback, a failed
// cycle, a coverage rejection off a really quarantined feed (plus the other
// three reasons through the same accounting call), a released quarantine, a
// record dropped by the clock-skew guard, an SSE client with a dropped
// event, every endpoint hit a different number of times, and the counters
// only a live process moves (ingest, snapshots, limiter refusals, loop
// restarts) stored directly.
func metricsFixture(t *testing.T) *Server {
	t.Helper()
	city, series := testCity(t, 20, 24)
	spd := city.Config.SlotsPerDay()
	w := newTestWindow(t, city, 14)
	quarantineGuards(w)
	cfg := testConfig(city, w)
	cfg.Admission = AdmitConfig{MinCoverage: 0.9}
	cfg.APIToken = "sekrit"
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	hit := func(n int, method, target string, status int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			if target == "/stream" {
				cancel() // the handler returns as soon as it has greeted the client
			}
			defer cancel()
			req := httptest.NewRequest(method, target, nil).WithContext(ctx)
			req.Header.Set("Authorization", "Bearer sekrit")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != status {
				t.Fatalf("%s %s = %d, want %d", method, target, rec.Code, status)
			}
		}
	}

	feedDays(w, city, series, 0, 15, nil)
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	feedDays(w, city, series, 15, 16, nil)
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	hit(1, "POST", "/models/rollback", http.StatusOK)
	hit(7, "POST", "/models/rollback", http.StatusConflict)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.RemodelNow(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cycle: %v", err)
	}

	// Two poisoned days quarantine 40 % of the towers and the gate refuses
	// the candidate; a third day poisons only half of those, so the rest
	// are released again.
	feedDays(w, city, series, 16, 18, spikeFrac(spd, 16, 18, 40))
	var rej *RejectionError
	if err := srv.RemodelNow(context.Background()); !errors.As(err, &rej) {
		t.Fatalf("poisoned cycle: %v, want rejection", err)
	}
	feedDays(w, city, series, 18, 19, func(towerID, absSlot int, bytes float64) float64 {
		if towerID%5 == 0 {
			return bytes * 40
		}
		return bytes
	})
	future := city.Config.Start.Add(40 * 24 * time.Hour)
	w.AddBatch([]trace.Record{{UserID: 1, Start: future, End: future.Add(time.Minute), TowerID: series[0].TowerID, Bytes: 1, Tech: trace.TechLTE}})
	if sum := w.Summary(); sum.Quarantined == 0 || sum.QuarantineReleases == 0 || sum.DroppedFuture == 0 || sum.QuarantineEvents == sum.QuarantineReleases {
		t.Fatalf("fixture window no longer exercises the guards: %+v", sum)
	}

	srv.admMu.Lock()
	srv.noteRejectionLocked([]RejectReason{RejectCompleteness, RejectValidity, RejectBacktest})
	srv.noteRejectionLocked([]RejectReason{RejectValidity, RejectBacktest})
	srv.noteRejectionLocked([]RejectReason{RejectBacktest})
	srv.admMu.Unlock()

	if _, ok := srv.broker.subscribe(); !ok {
		t.Fatal("subscribe refused")
	}
	for i := 0; i <= subscriberBuffer; i++ {
		srv.broker.publish(anomalyEvent{Tower: i})
	}

	for i, c := range []interface{ Store(uint64) }{
		&srv.met.ingestRecords, &srv.met.ingestBatches, &srv.met.ingestErrors, &srv.met.modelSkips,
		&srv.met.rollbackAuto, &srv.met.snapshots, &srv.met.snapshotSkips, &srv.met.snapshotFailures,
		&srv.met.healthTransitions, &srv.met.reqRejected, &srv.met.reqTimeouts, &srv.met.reqPanics,
		&srv.met.reqRateLimited, &srv.met.sseRejected,
	} {
		c.Store(uint64(101 + i))
	}
	srv.met.ingestWaits.Consumer.Store(int64(1500 * time.Millisecond))
	srv.met.ingestWaits.Producer.Store(int64(250 * time.Millisecond))
	srv.ingestLoop.state.Store(loopBackoff)
	srv.ingestLoop.restarts.Store(2)
	srv.ingestLoop.setErr(errors.New("feed broke"))
	srv.remodelLoop.state.Store(loopRunning)
	srv.remodelLoop.restarts.Store(1)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/summary", nil)) // no token
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("tokenless /summary = %d, want 401", rec.Code)
	}
	hit(1, "GET", "/healthz", http.StatusOK)
	hit(2, "GET", "/readyz", http.StatusOK)
	hit(2, "GET", "/summary", http.StatusOK)
	hit(4, "GET", "/towers", http.StatusOK)
	hit(5, "GET", fmt.Sprintf("/towers/%d", srv.model().towers[0].Tower), http.StatusOK)
	hit(6, "GET", "/stream", http.StatusOK)
	hit(9, "GET", "/models", http.StatusOK)
	hit(10, "GET", "/metrics", http.StatusOK)
	return srv
}

// Clock-dependent values: the goldens carry maskedNumber in their place and
// the comparison only requires a number there.
const maskedNumber = "MASKED_NUMBER"

var (
	maskedJSONPaths    = map[string]bool{"model.age_seconds": true, "model.last_cycle_millis": true}
	maskedPromFamilies = map[string]bool{"repro_model_age_seconds": true, "repro_model_last_cycle_seconds": true}
)

// flattenJSON turns a decoded JSON document into dotted path → leaf.
func flattenJSON(prefix string, v any, out map[string]any) {
	if obj, ok := v.(map[string]any); ok {
		for k, child := range obj {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flattenJSON(p, child, out)
		}
		return
	}
	out[prefix] = v
}

// scrapeMetrics fetches /metrics in both encodings: the flattened JSON
// document, then the Prometheus lines.
func scrapeMetrics(t *testing.T, srv *Server) (map[string]any, []string) {
	t.Helper()
	get := func(target string) []byte {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", target, rec.Code)
		}
		return rec.Body.Bytes()
	}
	var doc any
	if err := json.Unmarshal(get("/metrics"), &doc); err != nil {
		t.Fatal(err)
	}
	flat := map[string]any{}
	flattenJSON("", doc, flat)
	return flat, strings.Split(strings.TrimSpace(string(get("/metrics?format=prom"))), "\n")
}

// promSampleName is the family name of a sample line ("" for comments).
func promSampleName(line string) string {
	if strings.HasPrefix(line, "#") {
		return ""
	}
	return line[:strings.IndexAny(line, "{ ")]
}

// TestMetricsParity pins /metrics across the move to one table. The goldens
// were written by this fixture at commit ce718fc — the last one with a
// hand-written renderer per encoding — and are not regenerated: the test
// requires golden ⊆ actual (every Prometheus HELP, TYPE and sample line,
// every JSON path with the same value), so rows added later need no golden
// entry (the two repro_ingest_wait_seconds_total rows were appended to the
// goldens by hand, with the fixture line that sets them, in the change that
// added the rows). It then walks the table: every row is emitted by both renderers
// with the same value, and a family's rows are adjacent, as the exposition
// format requires.
func TestMetricsParity(t *testing.T) {
	srv := metricsFixture(t)
	flat, lines := scrapeMetrics(t, srv)
	have := map[string]bool{}
	samples := map[string]float64{} // `family{label}` → value
	for _, l := range lines {
		have[l] = true
		if name := promSampleName(l); name != "" {
			key, val, _ := strings.Cut(l, " ")
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Errorf("unparsable sample %q", l)
			}
			samples[key] = v
		}
	}

	var golden map[string]any
	raw, err := os.ReadFile(filepath.Join("testdata", "metrics.json.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for path, want := range golden {
		got, ok := flat[path]
		if _, number := got.(float64); want == maskedNumber && ok && number {
			continue
		}
		if !ok || got != want {
			t.Errorf("JSON %s = %v (present %v), golden %v", path, got, ok, want)
		}
	}
	raw, err = os.ReadFile(filepath.Join("testdata", "metrics.prom.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if name, masked := strings.CutSuffix(want, " "+maskedNumber); masked {
			if _, ok := samples[name]; !ok {
				t.Errorf("Prometheus sample %s is gone", name)
			}
		} else if !have[want] {
			t.Errorf("Prometheus line %q is gone", want)
		}
	}

	closed := map[string]bool{} // families whose run of rows has ended
	family := ""
	for _, row := range srv.rows {
		if row.family != family {
			if closed[row.family] {
				t.Errorf("rows of %s are not adjacent", row.family)
			}
			closed[family], family = true, row.family
		}
		key, leaf := row.family, ""
		if row.labelKey != "" {
			key, leaf = fmt.Sprintf("%s{%s=%q}", row.family, row.labelKey, row.labelVal), "."+row.labelVal
		}
		pv, ok := samples[key]
		if !ok {
			t.Errorf("row %s is missing from the Prometheus exposition", key)
		}
		for _, path := range strings.Fields(row.json) {
			path += leaf
			jv, ok := flat[path].(float64)
			if !ok {
				t.Errorf("row %s is missing from the JSON document at %s", key, path)
			}
			if row.jsonMillis {
				jv /= 1000
			}
			// The two encodings are two scrapes: the clock-driven rows move by
			// the time between them and the second scrape counts the first.
			tol := 0.0
			if maskedJSONPaths[path] || path == "requests.metrics" {
				tol = 1
			}
			if math.Abs(jv-pv) > tol {
				t.Errorf("row %s: JSON %s = %v, Prometheus = %v", key, path, jv, pv)
			}
		}
	}
}
