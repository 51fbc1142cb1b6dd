package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/synth"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/window"
)

// testCity generates a small synthetic city plus its ground-truth series.
func testCity(tb testing.TB, towers, days int) (*synth.City, []synth.TowerSeries) {
	tb.Helper()
	cfg := synth.SmallConfig()
	cfg.Towers = towers
	cfg.Users = 200
	cfg.Days = days
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		tb.Fatal(err)
	}
	return city, series
}

// feedDays streams the series' slots in [fromDay, toDay) into the window
// in chronological order, one record per tower per slot. spike, when
// non-nil, may rescale a slot's bytes.
func feedDays(w *window.Window, city *synth.City, series []synth.TowerSeries, fromDay, toDay int, spike func(towerID, absSlot int, bytes float64) float64) {
	cfg := city.Config
	spd := cfg.SlotsPerDay()
	recs := make([]trace.Record, 0, len(series))
	for slot := fromDay * spd; slot < toDay*spd; slot++ {
		recs = recs[:0]
		start := cfg.Start.Add(time.Duration(slot) * time.Duration(cfg.SlotMinutes) * time.Minute)
		for _, s := range series {
			if slot >= len(s.Bytes) {
				continue
			}
			bytes := s.Bytes[slot]
			if spike != nil {
				bytes = spike(s.TowerID, slot, bytes)
			}
			if bytes <= 0 {
				continue
			}
			recs = append(recs, trace.Record{
				UserID:  s.TowerID,
				Start:   start,
				End:     start.Add(time.Minute),
				TowerID: s.TowerID,
				Bytes:   int64(bytes),
				Tech:    trace.TechLTE,
			})
		}
		w.AddBatch(recs)
	}
}

func newTestWindow(tb testing.TB, city *synth.City, days int) *window.Window {
	tb.Helper()
	w, err := window.New(window.Options{
		Start:       city.Config.Start,
		SlotMinutes: city.Config.SlotMinutes,
		Days:        days,
	})
	if err != nil {
		tb.Fatal(err)
	}
	w.SetLocations(city.TowerInfos())
	return w
}

func testConfig(city *synth.City, w *window.Window) Config {
	return Config{
		Window:          w,
		POIs:            city.POIs,
		RemodelInterval: time.Hour, // cycles are driven explicitly in tests
		Analyze:         core.Options{Workers: 2, Seed: 1},
	}
}

func getJSON(t *testing.T, url string, status int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, status)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return out
}

func TestServerAPIEndToEnd(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, series := testCity(t, 36, 21)
	w := newTestWindow(t, city, 14)
	feedDays(w, city, series, 0, 15, nil)

	srv, err := New(testConfig(city, w))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	health := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if health["ready"] != true {
		t.Fatalf("healthz not ready after a modeling cycle: %v", health)
	}

	summary := getJSON(t, ts.URL+"/summary", http.StatusOK)
	modelAny, ok := summary["model"].(map[string]any)
	if !ok {
		t.Fatalf("summary has no model block: %v", summary)
	}
	info := modelAny["info"].(map[string]any)
	if days := info["days"].(float64); days != 14 {
		t.Errorf("modeled days = %v, want 14", days)
	}
	if k := info["k"].(float64); k < 2 || k > 10 {
		t.Errorf("selected k = %v, want within [2, 10]", k)
	}

	m := srv.model()
	id := m.towers[0].Tower
	tower := getJSON(t, fmt.Sprintf("%s/towers/%d", ts.URL, id), http.StatusOK)
	if tower["region"] == "" {
		t.Errorf("tower response missing region: %v", tower)
	}
	if _, ok := tower["window"]; !ok {
		t.Errorf("tower response missing live window stats: %v", tower)
	}
	fc, ok := tower["forecast"].(map[string]any)
	if !ok {
		t.Fatalf("tower response missing forecast (14-day window): %v", tower)
	}
	if cov := fc["coverage"].(float64); cov <= 0 {
		t.Errorf("forecast coverage = %v, want > 0 for live synthetic traffic", cov)
	}
	if nd := fc["next_day"].([]any); len(nd) != city.Config.SlotsPerDay() {
		t.Errorf("next_day has %d slots, want %d", len(nd), city.Config.SlotsPerDay())
	}

	// Anomaly filter overrides: disabling both filters flags every slot
	// (the window carries noisy traffic, so the residual scale is nonzero).
	off := getJSON(t, fmt.Sprintf("%s/towers/%d?threshold=off&min_rel_dev=off", ts.URL, id), http.StatusOK)
	if n := len(off["anomalies"].([]any)); n != len(m.raw[0]) {
		t.Errorf("filters off flagged %d slots, want all %d", n, len(m.raw[0]))
	}

	// Error paths.
	getJSON(t, ts.URL+"/towers/999999", http.StatusNotFound)
	getJSON(t, ts.URL+"/towers/abc", http.StatusBadRequest)
	getJSON(t, fmt.Sprintf("%s/towers/%d?threshold=five", ts.URL, id), http.StatusBadRequest)

	met := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	if cycles := met["model"].(map[string]any)["cycles"].(float64); cycles != 1 {
		t.Errorf("metrics report %v modeling cycles, want 1", cycles)
	}
	if reqs := met["requests"].(map[string]any)["tower"].(float64); reqs < 4 {
		t.Errorf("metrics report %v tower requests, want >= 4", reqs)
	}
}

func TestServerBeforeFirstModel(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, _ := testCity(t, 8, 7)
	w := newTestWindow(t, city, 14)
	srv, err := New(testConfig(city, w))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	health := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if health["ready"] != false {
		t.Errorf("empty server reports ready: %v", health)
	}
	getJSON(t, ts.URL+"/towers/1", http.StatusServiceUnavailable)
	getJSON(t, ts.URL+"/towers", http.StatusServiceUnavailable)
	summary := getJSON(t, ts.URL+"/summary", http.StatusOK)
	if _, ok := summary["model"]; ok {
		t.Errorf("summary advertises a model before any cycle: %v", summary)
	}
	if err := srv.RemodelNow(context.Background()); err != window.ErrWarmingUp {
		t.Errorf("RemodelNow on empty window = %v, want ErrWarmingUp", err)
	}
}

func TestServerSSEStreamsFreshAnomalies(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, series := testCity(t, 24, 28)
	w := newTestWindow(t, city, 14)
	feedDays(w, city, series, 0, 15, nil)

	cfg := testConfig(city, w)
	cfg.Anomaly = anomaly.Options{Threshold: 8}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}
	reader := bufio.NewReader(resp.Body)
	hello, err := reader.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(hello, ": connected") {
		t.Fatalf("stream greeting = %q", hello)
	}

	// Feed a week more of traffic with a large spike at midday of day 18
	// for one tower; the next model's window covers days 7..21, and only
	// anomalies past the previous window end (day 14) are fresh news.
	spd := city.Config.SlotsPerDay()
	spikedTower := series[5].TowerID
	spike := func(towerID, absSlot int, bytes float64) float64 {
		if towerID == spikedTower && absSlot/spd == 18 && absSlot%spd >= spd/2 && absSlot%spd < spd/2+3 {
			return bytes*25 + 1e6
		}
		return bytes
	}
	feedDays(w, city, series, 15, 22, spike)
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	found := false
	for !found && time.Now().Before(deadline) {
		line, err := reader.ReadString('\n')
		if err != nil {
			t.Fatalf("reading stream: %v", err)
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev anomalyEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		if ev.ModelSeq != 2 {
			t.Errorf("event from model %d, want 2 (first model must not publish)", ev.ModelSeq)
		}
		if !ev.Time.Before(city.Config.Start.Add(14 * 24 * time.Hour)) {
			// All events are fresh (past day 14); look for the injected one.
			if ev.Tower == spikedTower && ev.Time.Sub(city.Config.Start) >= 18*24*time.Hour && ev.Time.Sub(city.Config.Start) < 19*24*time.Hour {
				found = true
			}
		} else {
			t.Fatalf("stale anomaly published: %+v", ev)
		}
	}
	if !found {
		t.Fatal("injected spike never appeared on the SSE stream")
	}
}

func TestServerChaosShutdownLeakFree(t *testing.T) {
	profiles := map[string]faultinject.SourceProfile{
		"error-mid-stream": {ErrAfter: 2000},
		"panic-mid-stream": {PanicAfter: 2000},
	}
	for name, profile := range profiles {
		t.Run(name, func(t *testing.T) {
			testutil.CheckNoGoroutineLeak(t)
			city, series := testCity(t, 12, 10)
			w := newTestWindow(t, city, 7)

			stream := city.LogSource(series, synth.LogOptions{TimeMajor: true})
			defer stream.Close()
			cfg := testConfig(city, w)
			cfg.Source = faultinject.NewSource(stream, profile)
			cfg.RemodelInterval = 20 * time.Millisecond
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			srv.Start(ctx)

			// The fault trips well before the feed ends; the service must
			// record it and keep answering queries.
			deadline := time.Now().Add(5 * time.Second)
			for srv.met.ingestErrors.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("injected ingest fault never recorded")
				}
				time.Sleep(time.Millisecond)
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("healthz after ingest fault: status %d", rec.Code)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestServerSnapshotRestartResumesIdenticalModel(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, series := testCity(t, 20, 21)
	snapshot := filepath.Join(t.TempDir(), "window.snap")

	w1 := newTestWindow(t, city, 14)
	feedDays(w1, city, series, 0, 15, nil)
	cfg1 := testConfig(city, w1)
	cfg1.SnapshotPath = snapshot
	srv1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	srv1.Start(ctx)
	if err := srv1.RemodelNow(ctx); err != nil {
		t.Fatal(err)
	}
	m1 := srv1.model()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh process restores the newest snapshot generation
	// and re-models.
	w2, from, err := NewSnapshotStore(snapshot, 0, nil, t.Logf).Restore()
	if err != nil {
		t.Fatal(err)
	}
	if w2 == nil {
		t.Fatal("no snapshot generation restored")
	}
	if want := snapshot + ".1"; from != want {
		t.Fatalf("restored from %s, want %s", from, want)
	}
	w2.SetLocations(city.TowerInfos())
	srv2, err := New(testConfig(city, w2))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.RemodelNow(ctx); err != nil {
		t.Fatal(err)
	}
	m2 := srv2.model()

	if !reflect.DeepEqual(m1.raw, m2.raw) {
		t.Fatal("restarted service modeled a different raw window")
	}
	// A tower row carries the tower's cluster label and region.
	if m1.K != m2.K || !reflect.DeepEqual(m1.towers, m2.towers) {
		t.Fatal("restarted service produced a different cluster assignment or region labels")
	}

	// Both services continue from the same live feed: still identical.
	feedDays(w1, city, series, 15, 17, nil)
	feedDays(w2, city, series, 15, 17, nil)
	srv3, err := New(testConfig(city, w1))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv3.RemodelNow(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv2.RemodelNow(ctx); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srv3.model().towers, srv2.model().towers) {
		t.Fatal("windows diverged after identical post-restart traffic")
	}
}

// BenchmarkTowerLookupUnderIngest measures query latency on /towers/{id}
// while a background goroutine continuously ingests batches — the
// serving-path claim: queries read the published model and O(1) window
// stats, so ingest and modeling never block them.
func BenchmarkTowerLookupUnderIngest(b *testing.B) {
	city, series := testCity(b, 100, 21)
	w := newTestWindow(b, city, 14)
	feedDays(w, city, series, 0, 15, nil)
	srv, err := New(testConfig(city, w))
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.RemodelNow(context.Background()); err != nil {
		b.Fatal(err)
	}
	handler := srv.Handler()
	var ids []int
	for _, row := range srv.model().towers {
		ids = append(ids, row.Tower)
	}

	stop := make(chan struct{})
	ingested := make(chan uint64)
	go func() {
		spd := city.Config.SlotsPerDay()
		var n uint64
		batch := make([]trace.Record, 0, len(series))
		for slot := 15 * spd; ; slot++ {
			select {
			case <-stop:
				ingested <- n
				return
			default:
			}
			batch = batch[:0]
			start := city.Config.Start.Add(time.Duration(slot) * time.Duration(city.Config.SlotMinutes) * time.Minute)
			for _, s := range series {
				batch = append(batch, trace.Record{
					UserID: s.TowerID, Start: start, End: start.Add(time.Minute),
					TowerID: s.TowerID, Bytes: 1 << 20, Tech: trace.TechLTE,
				})
			}
			w.AddBatch(batch)
			n += uint64(len(batch))
		}
	}()

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(1))
		for pb.Next() {
			id := ids[rng.Intn(len(ids))]
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/towers/%d", id), nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("lookup status %d", rec.Code)
			}
		}
	})
	b.StopTimer()
	close(stop)
	n := <-ingested
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "ingested-records/s")
}
