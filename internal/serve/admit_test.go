package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/synth"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/window"
)

func TestAdmitGate(t *testing.T) {
	base := AdmissionStats{Towers: 100, Completeness: 0.9, DBI: 1.0, Silhouette: 0.5, BacktestNRMSE: 0.2}
	cfg := AdmitConfig{MinCoverage: 0.8, MinCompleteness: 0.5, MaxValidityDrift: 0.3, MaxBacktestRegress: 0.5}
	mod := func(f func(*AdmissionStats)) AdmissionStats {
		st := base
		f(&st)
		return st
	}
	cases := []struct {
		name string
		cfg  AdmitConfig
		prev *AdmissionStats
		cand AdmissionStats
		want []RejectReason
	}{
		{"first generation passes vacuously", cfg, nil,
			AdmissionStats{Towers: 10, Completeness: 0.6, DBI: 9, Silhouette: -1, BacktestNRMSE: 5}, nil},
		{"identical stats pass", cfg, &base, base, nil},
		{"coverage loss", cfg, &base, mod(func(s *AdmissionStats) { s.Towers = 70 }), []RejectReason{RejectCoverage}},
		{"coverage at the bound passes", cfg, &base, mod(func(s *AdmissionStats) { s.Towers = 80 }), nil},
		{"completeness is absolute, no prev needed", cfg, nil,
			AdmissionStats{Towers: 10, Completeness: 0.4, BacktestNRMSE: -1}, []RejectReason{RejectCompleteness}},
		{"dbi drift", cfg, &base, mod(func(s *AdmissionStats) { s.DBI = 1.4 }), []RejectReason{RejectValidity}},
		{"infinite candidate dbi fails against finite baseline", cfg, &base,
			mod(func(s *AdmissionStats) { s.DBI = math.Inf(1) }), []RejectReason{RejectValidity}},
		{"infinite previous dbi skips the dbi check", cfg,
			&AdmissionStats{Towers: 100, Completeness: 0.9, DBI: math.Inf(1), Silhouette: 0.5, BacktestNRMSE: 0.2},
			mod(func(s *AdmissionStats) { s.DBI = 5 }), nil},
		{"silhouette drop", cfg, &base, mod(func(s *AdmissionStats) { s.Silhouette = 0.1 }), []RejectReason{RejectValidity}},
		{"backtest regression", cfg, &base, mod(func(s *AdmissionStats) { s.BacktestNRMSE = 0.5 }), []RejectReason{RejectBacktest}},
		{"missing candidate backtest skips the check", cfg, &base,
			mod(func(s *AdmissionStats) { s.BacktestNRMSE = -1 }), nil},
		{"multiple failures accumulate", cfg, &base,
			mod(func(s *AdmissionStats) { s.Towers = 50; s.BacktestNRMSE = 2 }),
			[]RejectReason{RejectCoverage, RejectBacktest}},
		{"zero config admits anything", AdmitConfig{}, &base,
			AdmissionStats{Towers: 1, Completeness: 0, DBI: math.Inf(1), Silhouette: -1, BacktestNRMSE: 99}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reasons, details := admit(tc.cfg, tc.prev, tc.cand)
			if len(reasons) != len(details) {
				t.Fatalf("reasons/details length mismatch: %v vs %v", reasons, details)
			}
			if fmt.Sprint(reasons) != fmt.Sprint(tc.want) {
				t.Errorf("admit = %v, want %v (details: %v)", reasons, tc.want, details)
			}
			for i, d := range details {
				if d == "" {
					t.Errorf("detail %d for %v is empty", i, reasons[i])
				}
			}
		})
	}
}

func TestModelHistoryRollback(t *testing.T) {
	h := newModelHistory(3)
	if _, err := h.rollback(0); !errors.Is(err, errNoOlderGeneration) {
		t.Fatalf("rollback of empty history: %v, want errNoOlderGeneration", err)
	}
	gen := func(seq uint64) *generation { return &generation{rm: &readModel{modelInfo: modelInfo{Seq: seq}}} }
	for seq := uint64(1); seq <= 4; seq++ {
		h.push(gen(seq))
	}
	if len(h.gens) != 3 || h.gens[0].rm.Seq != 2 {
		t.Fatalf("cap eviction: have %d gens, oldest #%d; want 3 gens from #2", len(h.gens), h.gens[0].rm.Seq)
	}
	if got := h.list(); got[0].rm.Seq != 4 || got[2].rm.Seq != 2 {
		t.Fatalf("list not newest-first: %v..%v", got[0].rm.Seq, got[2].rm.Seq)
	}
	if _, err := h.rollback(4); err == nil {
		t.Fatal("rollback to the live head should fail")
	}
	if _, err := h.rollback(99); err == nil {
		t.Fatal("rollback to an unknown seq should fail")
	}
	g, err := h.rollback(0)
	if err != nil || g.rm.Seq != 3 {
		t.Fatalf("one-step rollback: gen %v err %v, want #3", g, err)
	}
	g, err = h.rollback(2)
	if err != nil || g.rm.Seq != 2 {
		t.Fatalf("named rollback: gen %v err %v, want #2", g, err)
	}
	if _, err := h.rollback(0); !errors.Is(err, errNoOlderGeneration) {
		t.Fatalf("rollback past the oldest generation: %v, want errNoOlderGeneration", err)
	}
}

// quarantineGuards enables the window guards the admission tests rely
// on: a tight quarantine (so poisoned towers disappear from Dataset
// within a few slots) plus a clock-skew bound.
func quarantineGuards(w *window.Window) {
	w.SetGuards(window.Guards{
		MaxFutureSkew: 6 * time.Hour,
		Quarantine: window.QuarantineOptions{
			ZThreshold:   6,
			MinSlots:     288, // two days at 10-minute slots
			TriggerSlots: 3,
			ReleaseSlots: 4,
		},
	})
}

// cityRecords renders the series' slots in [fromDay, toDay) as a
// chronological record stream, one record per tower per non-empty slot.
func cityRecords(city *synth.City, series []synth.TowerSeries, fromDay, toDay int) []trace.Record {
	cfg := city.Config
	spd := cfg.SlotsPerDay()
	var recs []trace.Record
	for slot := fromDay * spd; slot < toDay*spd; slot++ {
		start := cfg.Start.Add(time.Duration(slot) * time.Duration(cfg.SlotMinutes) * time.Minute)
		for _, s := range series {
			if slot >= len(s.Bytes) || s.Bytes[slot] <= 0 {
				continue
			}
			recs = append(recs, trace.Record{
				UserID:  s.TowerID,
				Start:   start,
				End:     start.Add(time.Minute),
				TowerID: s.TowerID,
				Bytes:   int64(s.Bytes[slot]),
				Tech:    trace.TechLTE,
			})
		}
	}
	return recs
}

// drainInto pumps a source dry into the window.
func drainInto(tb testing.TB, w *window.Window, src trace.Source) {
	tb.Helper()
	buf := make([]trace.Record, 512)
	for {
		n, err := src.NextBatch(buf)
		if n > 0 {
			w.AddBatch(buf[:n])
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestPoisonedFeedNeverDisplacesGoodModel is the chaos soak of the
// admission stack: a seed-deterministic poisoned feed (value spikes +
// duplicate floods + far-future timestamps on a fixed fraction of
// towers) drives the window quarantine, which in turn starves the
// candidate's tower coverage below the gate's bound — and the live
// model must survive untouched until the poison clears.
func TestPoisonedFeedNeverDisplacesGoodModel(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, series := testCity(t, 20, 35)
	w := newTestWindow(t, city, 14)
	quarantineGuards(w)

	cfg := testConfig(city, w)
	cfg.Admission = AdmitConfig{MinCoverage: 0.75}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	profile := faultinject.PoisonProfile{
		Seed:           7,
		ActiveFrom:     city.Config.Start.AddDate(0, 0, 15),
		ActiveTo:       city.Config.Start.AddDate(0, 0, 17),
		TowerFraction:  0.4,
		SpikeFactor:    40,
		DuplicateFlood: 2,
		LateBy:         30 * time.Minute,
		FutureSkew:     48 * time.Hour,
		FutureEvery:    50,
	}
	feed := func(fromDay, toDay int) *faultinject.PoisonedSource {
		src := faultinject.NewPoisonedSource(trace.SliceSource(cityRecords(city, series, fromDay, toDay)), profile)
		drainInto(t, w, src)
		return src
	}

	// Phase 1: a clean fortnight; the first generation publishes.
	feed(0, 15)
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if seq := srv.model().Seq; seq != 1 {
		t.Fatalf("first accepted generation seq = %d, want 1", seq)
	}

	// Phase 2: two poisoned days. The quarantine must catch the spiked
	// towers and the gate must refuse the starved candidate.
	poisoned := feed(15, 17)
	if poisoned.Poisoned() == 0 || poisoned.Injected() == 0 {
		t.Fatalf("poison generator inert: poisoned=%d injected=%d", poisoned.Poisoned(), poisoned.Injected())
	}
	sum := w.Summary()
	if sum.Quarantined == 0 {
		t.Fatal("no towers quarantined after the poisoned days")
	}
	if float64(sum.Towers-sum.Quarantined)/float64(sum.Towers) >= cfg.Admission.MinCoverage {
		t.Fatalf("quarantine too weak for a coverage rejection: %d of %d towers quarantined", sum.Quarantined, sum.Towers)
	}
	if sum.DroppedFuture == 0 {
		t.Fatal("clock-skew guard dropped nothing despite future-skewed poison")
	}

	err = srv.RemodelNow(context.Background())
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("poisoned cycle: err = %v, want *RejectionError", err)
	}
	if len(rej.Reasons) == 0 || rej.Reasons[0] != RejectCoverage {
		t.Fatalf("reject reasons = %v, want coverage first", rej.Reasons)
	}
	if seq := srv.model().Seq; seq != 1 {
		t.Fatalf("live model displaced by a rejected candidate: seq = %d, want 1", seq)
	}
	if fails := srv.met.modelFailures.Load(); fails != 0 {
		t.Fatalf("a gate rejection was counted as a modeling failure (%d)", fails)
	}

	// The query plane still answers from the last accepted generation.
	towers := getJSON(t, ts.URL+"/towers", http.StatusOK)
	if seq := towers["model"].(map[string]any)["seq"].(float64); seq != 1 {
		t.Fatalf("/towers serves model seq %v during the reject streak, want 1", seq)
	}

	// The rejection is visible in both metric formats.
	met := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	adm := met["admission"].(map[string]any)
	if adm["rejected"].(float64) != 1 || adm["consecutive_rejects"].(float64) != 1 {
		t.Fatalf("admission metrics = %v, want rejected 1, consecutive 1", adm)
	}
	if byReason := adm["rejected_by_reason"].(map[string]any); byReason["coverage"].(float64) != 1 {
		t.Fatalf("rejected_by_reason = %v, want coverage 1", byReason)
	}
	prom := getText(t, ts.URL+"/metrics?format=prom")
	if !strings.Contains(prom, `repro_model_rejected_total{reason="coverage"} 1`) {
		t.Fatal("prometheus exposition is missing the coverage rejection")
	}
	if strings.Contains(prom, "repro_window_quarantined_towers 0\n") || !strings.Contains(prom, "repro_window_quarantined_towers") {
		t.Fatal("prometheus exposition does not report the quarantined towers")
	}

	summary := getJSON(t, ts.URL+"/summary", http.StatusOK)
	win := summary["window"].(map[string]any)
	if win["quarantined"].(float64) == 0 || win["quarantine_events"].(float64) == 0 || win["dropped_future"].(float64) == 0 {
		t.Fatalf("/summary window block misses the guard accounting: %v", win)
	}

	models := getJSON(t, ts.URL+"/models", http.StatusOK)
	if models["current_seq"].(float64) != 1 || len(models["generations"].([]any)) != 1 {
		t.Fatalf("/models during the streak = %v, want current 1, one generation", models)
	}

	// Phase 3: the poison clears. Clean traffic releases the quarantined
	// towers against their still-clean median baselines and publication
	// resumes with the next monotone sequence number.
	feed(17, 31)
	sum = w.Summary()
	if sum.Quarantined != 0 || sum.QuarantineReleases == 0 {
		t.Fatalf("quarantine did not release after the poison cleared: %+v", sum)
	}
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatalf("clean cycle after the poison cleared: %v", err)
	}
	if seq := srv.model().Seq; seq != 2 {
		t.Fatalf("post-poison generation seq = %d, want 2", seq)
	}
	models = getJSON(t, ts.URL+"/models", http.StatusOK)
	gens := models["generations"].([]any)
	if models["current_seq"].(float64) != 2 || len(gens) != 2 {
		t.Fatalf("/models after recovery = %v, want current 2, two generations", models)
	}
	if !gens[0].(map[string]any)["current"].(bool) || gens[0].(map[string]any)["seq"].(float64) != 2 {
		t.Fatalf("newest generation should be current #2: %v", gens[0])
	}
}

// spikeFrac returns a feedDays spike hook that multiplies the bytes of a
// fixed, deterministic 40% of towers by factor inside [fromDay, toDay).
func spikeFrac(spd, fromDay, toDay int, factor float64) func(int, int, float64) float64 {
	return func(towerID, absSlot int, bytes float64) float64 {
		if absSlot >= fromDay*spd && absSlot < toDay*spd && towerID%5 < 2 {
			return bytes * factor
		}
		return bytes
	}
}

func TestAutoRollbackAfterRejectStreak(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, series := testCity(t, 20, 30)
	spd := city.Config.SlotsPerDay()
	w := newTestWindow(t, city, 14)
	quarantineGuards(w)

	cfg := testConfig(city, w)
	cfg.Admission = AdmitConfig{MinCoverage: 0.9}
	cfg.AutoRollback = 2
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	feedDays(w, city, series, 0, 15, nil)
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	feedDays(w, city, series, 15, 16, nil)
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if seq := srv.model().Seq; seq != 2 {
		t.Fatalf("second accepted generation seq = %d, want 2", seq)
	}

	// Two poisoned days quarantine 40% of the towers; coverage collapses.
	feedDays(w, city, series, 16, 18, spikeFrac(spd, 16, 18, 40))
	if sum := w.Summary(); sum.Quarantined == 0 {
		t.Fatal("no towers quarantined after the spiked days")
	}
	var rej *RejectionError
	if err := srv.RemodelNow(context.Background()); !errors.As(err, &rej) {
		t.Fatalf("first poisoned cycle: %v, want rejection", err)
	}
	if seq := srv.model().Seq; seq != 2 {
		t.Fatalf("one rejection must not roll back yet: serving #%d", seq)
	}
	if err := srv.RemodelNow(context.Background()); !errors.As(err, &rej) {
		t.Fatalf("second poisoned cycle: %v, want rejection", err)
	}

	// The streak hit AutoRollback: generation 1 serves again, the streak
	// counter reset, and the rollback is on the books.
	if seq := srv.model().Seq; seq != 1 {
		t.Fatalf("after the reject streak: serving #%d, want auto-rollback to #1", seq)
	}
	if n := srv.met.rollbackAuto.Load(); n != 1 {
		t.Fatalf("rollbackAuto = %d, want 1", n)
	}
	if n := srv.met.modelConsecRejects.Load(); n != 0 {
		t.Fatalf("consecutive-reject streak = %d after rollback, want 0", n)
	}

	// Clean feed releases the quarantine; the next acceptance takes a
	// strictly higher seq than anything ever published.
	feedDays(w, city, series, 18, 30, nil)
	if sum := w.Summary(); sum.Quarantined != 0 {
		t.Fatalf("quarantine still holds %d towers after clean days", sum.Quarantined)
	}
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatalf("clean cycle after rollback: %v", err)
	}
	if seq := srv.model().Seq; seq != 3 {
		t.Fatalf("post-rollback acceptance seq = %d, want 3 (monotone past the dropped #2)", seq)
	}
}

func TestHealthAndStalenessAcrossRejectStreakAndRollback(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, series := testCity(t, 20, 24)
	spd := city.Config.SlotsPerDay()
	w := newTestWindow(t, city, 14)
	quarantineGuards(w)

	cfg := testConfig(city, w)
	cfg.Admission = AdmitConfig{MinCoverage: 0.9}
	cfg.StaleAfter = 3 * time.Second
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	feedDays(w, city, series, 0, 15, nil)
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	gen1At := srv.model().ModeledAt
	feedDays(w, city, series, 15, 16, nil)
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	gen2At := srv.model().ModeledAt

	feedDays(w, city, series, 16, 18, spikeFrac(spd, 16, 18, 40))
	var rej *RejectionError
	if err := srv.RemodelNow(context.Background()); !errors.As(err, &rej) {
		t.Fatalf("poisoned cycle: %v, want rejection", err)
	}

	// A reject streak degrades health but keeps readiness: the service is
	// still serving a trustworthy (if aging) model.
	if h, reason := srv.healthNow(); h != Degraded || !strings.Contains(reason, "rejected by admission") {
		t.Fatalf("health during the streak = %v (%q), want degraded by admission", h, reason)
	}
	ready := getJSON(t, ts.URL+"/readyz", http.StatusOK)
	if ready["health"] != "degraded" || ready["model_seq"].(float64) != 2 {
		t.Fatalf("/readyz during the streak = %v, want degraded on model 2", ready)
	}

	// Staleness is measured from the accepted model's own clock, so a
	// reject streak eventually drains the instance from load balancers
	// while the query plane keeps answering.
	time.Sleep(time.Until(gen2At.Add(cfg.StaleAfter + 200*time.Millisecond)))
	unready := getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable)
	if unready["health"] != "stale" {
		t.Fatalf("/readyz past StaleAfter = %v, want stale", unready)
	}
	if seq := getJSON(t, ts.URL+"/towers", http.StatusOK)["model"].(map[string]any)["seq"].(float64); seq != 2 {
		t.Fatalf("stale query plane serves seq %v, want last-good 2", seq)
	}

	// Manual rollback republishes generation 1 with its original clock:
	// it is older still, so readiness must not come back.
	resp, err := http.Post(ts.URL+"/models/rollback", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback status = %d, want 200", resp.StatusCode)
	}
	if seq := srv.model().Seq; seq != 1 {
		t.Fatalf("serving #%d after manual rollback, want 1", seq)
	}
	if !srv.model().ModeledAt.Equal(gen1At) {
		t.Fatalf("rollback rewrote ModeledAt: %v, want the original %v", srv.model().ModeledAt, gen1At)
	}
	if n := srv.met.rollbackManual.Load(); n != 1 {
		t.Fatalf("rollbackManual = %d, want 1", n)
	}
	if n := srv.met.modelConsecRejects.Load(); n != 0 {
		t.Fatalf("manual rollback must clear the reject streak, have %d", n)
	}
	getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable) // older model, still stale

	models := getJSON(t, ts.URL+"/models", http.StatusOK)
	if models["current_seq"].(float64) != 1 || len(models["generations"].([]any)) != 1 {
		t.Fatalf("/models after rollback = %v, want only generation 1", models)
	}

	// Nothing older remains: further rollbacks conflict, bad args 400.
	for path, status := range map[string]int{
		"/models/rollback":       http.StatusConflict,
		"/models/rollback?to=99": http.StatusConflict,
		"/models/rollback?to=x":  http.StatusBadRequest,
	} {
		resp, err := http.Post(ts.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Errorf("POST %s = %d, want %d", path, resp.StatusCode, status)
		}
	}
}

func TestAPIAuthAndRateLimit(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, series := testCity(t, 16, 16)
	w := newTestWindow(t, city, 14)
	feedDays(w, city, series, 0, 15, nil)

	cfg := testConfig(city, w)
	cfg.APIToken = "sekrit"
	cfg.RateLimit = 1
	cfg.RateBurst = 2
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do := func(method, path, token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Probes and the scrape endpoint stay open without credentials.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if resp := do("GET", path, ""); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s without token = %d, want 200 (probe exempt)", path, resp.StatusCode)
		}
	}

	// The query and operator plane requires the bearer token.
	if resp := do("GET", "/summary", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("GET /summary without token = %d, want 401", resp.StatusCode)
	} else if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 carries no WWW-Authenticate challenge")
	}
	if resp := do("GET", "/towers", "wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("GET /towers with a wrong token = %d, want 401", resp.StatusCode)
	}
	if resp := do("POST", "/models/rollback", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("POST /models/rollback without token = %d, want 401", resp.StatusCode)
	}

	// Authorized requests pass until the burst is spent, then 429 with a
	// Retry-After hint.
	if resp := do("GET", "/summary", "sekrit"); resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized GET /summary = %d, want 200", resp.StatusCode)
	}
	if resp := do("GET", "/towers", "sekrit"); resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized GET /towers = %d, want 200", resp.StatusCode)
	}
	limited := do("GET", "/towers", "sekrit")
	if limited.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third authorized request = %d, want 429 past the burst", limited.StatusCode)
	}
	if limited.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}

	met := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	reqs := met["requests"].(map[string]any)
	if reqs["unauthorized"].(float64) < 3 || reqs["ratelimited"].(float64) < 1 {
		t.Fatalf("refusal counters = %v, want >=3 unauthorized, >=1 ratelimited", reqs)
	}
	prom := getText(t, ts.URL+"/metrics?format=prom")
	if !strings.Contains(prom, "repro_requests_unauthorized_total") || !strings.Contains(prom, "repro_requests_ratelimited_total") {
		t.Fatal("prometheus exposition is missing the auth/rate-limit counters")
	}
}
