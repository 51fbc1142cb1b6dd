package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// Only the generation a cycle published holds its raw traffic: a rollback
// republishes a read model without it, so that generation answers every
// lookup but refuses a live re-score with 409 until the next cycle publishes.
func TestRolledBackGenerationKeepsNoTraffic(t *testing.T) {
	city, series := testCity(t, 20, 21)
	w := newTestWindow(t, city, 14)
	srv, err := New(testConfig(city, w))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, days := range [][2]int{{0, 15}, {15, 16}} {
		feedDays(w, city, series, days[0], days[1], nil)
		if err := srv.RemodelNow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	id := srv.model().towers[0].Tower
	lookup := fmt.Sprintf("%s/towers/%d", ts.URL, id)
	rescore := lookup + "?threshold=3"
	getJSON(t, rescore, http.StatusOK)

	resp, err := http.Post(ts.URL+"/models/rollback", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m := srv.model(); m.Seq != 1 || m.raw != nil {
		t.Fatalf("after rollback: serving #%d with raw traffic %v, want #1 without", m.Seq, m.raw != nil)
	}
	if seq := getJSON(t, lookup, http.StatusOK)["model"].(map[string]any)["seq"].(float64); seq != 1 {
		t.Fatalf("lookup after rollback answered from model %v, want 1", seq)
	}
	if msg := getJSON(t, rescore, http.StatusConflict)["error"].(string); !strings.Contains(msg, "rollback") {
		t.Errorf("re-score of a rolled-back generation: %q, want the rollback named", msg)
	}

	feedDays(w, city, series, 16, 17, nil)
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	getJSON(t, rescore, http.StatusOK)
}

// BenchmarkRetainedGenerations measures what the published generations
// keep alive: the live heap after a GC with ModelHistory (4) accepted
// generations over a 2 400-tower, two-week window, minus the live heap with
// the window alone. It runs once whatever b.N is:
//
//	go test ./internal/serve -run '^$' -bench RetainedGenerations -benchtime 1x
func BenchmarkRetainedGenerations(b *testing.B) {
	const towers, generations = 2400, 4
	// The synthetic series are dropped once fed, so only the window stays.
	cfg := func() Config {
		city, series := testCity(b, towers, 15)
		w := newTestWindow(b, city, 14)
		feedDays(w, city, series, 0, 15, nil)
		return testConfig(city, w)
	}()
	cfg.ModelHistory = generations
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	before := liveHeap()
	for range generations {
		if err := srv.RemodelNow(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(srv)
	mb := float64(after-before) / 1e6
	b.ReportMetric(mb, "retained-MB")
	b.ReportMetric(mb/generations, "MB/generation")
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
