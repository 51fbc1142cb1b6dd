package serve

// http.go is the query plane of the analysis service: a JSON API over
// the currently published model plus a server-sent-events feed of fresh
// anomalies. Handlers only ever read the published read model (through
// the atomic model pointer) and the window's O(1) per-tower stats, so they
// stay fast and non-blocking no matter what the re-modeling loop is doing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anomaly"
	"repro/internal/panicsafe"
	"repro/internal/trace"
)

// metrics are the service's operational counters, exposed on /metrics
// through the table in metrics.go. They are hand-rolled atomics rather than
// expvar publications so that tests (and embedders) can build any number of
// Servers in one process without tripping expvar's global re-registration
// panic.
type metrics struct {
	ingestRecords    atomic.Uint64
	ingestBatches    atomic.Uint64
	ingestErrors     atomic.Uint64
	ingestWaits      trace.ReadAheadWaits // the two ingest stages waiting for each other, over all attempts
	modelCycles      atomic.Uint64
	modelSkips       atomic.Uint64
	modelFailures    atomic.Uint64
	modelConsecFails atomic.Uint64 // failed cycles since the last success

	// Admission-gate accounting: candidates refused (total and per failed
	// check, indexed like rejectReasons), the consecutive-rejection streak
	// (reset by an acceptance or a rollback) and rollbacks by kind.
	modelRejected      atomic.Uint64
	rejected           [len(rejectReasons)]atomic.Uint64
	modelConsecRejects atomic.Uint64
	rollbackAuto       atomic.Uint64
	rollbackManual     atomic.Uint64
	snapshots          atomic.Uint64
	snapshotSkips      atomic.Uint64 // intentional (empty/stale window)
	snapshotFailures   atomic.Uint64
	lastModelNanos     atomic.Int64
	stageNanos         [len(stageNames)]atomic.Int64 // indexed like stageNames

	healthState       atomic.Int32 // last Health the health loop observed
	healthTransitions atomic.Uint64

	requests        []atomic.Uint64 // per endpoint, indexed like routes
	reqRejected     atomic.Uint64   // concurrent-request limiter refusals
	reqTimeouts     atomic.Uint64   // requests cut off by RequestTimeout
	reqPanics       atomic.Uint64   // handler panics converted to 500s
	reqUnauthorized atomic.Uint64   // bearer-auth refusals
	reqRateLimited  atomic.Uint64   // per-client rate-limit refusals
	sseRejected     atomic.Uint64   // /stream refusals over maxSSEClients
}

// Handler returns the service's HTTP API:
//
//	GET /healthz      liveness only: 200 while the process can answer at
//	                  all, with the health state in the body
//	GET /readyz       readiness with load-balancer semantics: 200 while
//	                  healthy or degraded, 503 + Retry-After once stale
//	GET /summary      window counters + published model overview
//	GET /towers       modeled towers with cluster and region labels
//	GET /towers/{id}  one tower: cluster, region, live window stats,
//	                  anomalies (tunable via ?threshold= and ?min_rel_dev=,
//	                  "off" disables a filter), forecast backtest + next day
//	GET /stream       server-sent events; one "anomaly" event per fresh
//	                  anomaly as each re-model publishes
//	GET /metrics      operational counters (JSON by default;
//	                  ?format=prom or "Accept: text/plain" for Prometheus
//	                  text exposition)
//	GET /models       the accepted-generation history with acceptance
//	                  stats and the admission/rollback counters
//	POST /models/rollback   republish an older accepted generation
//	                  (?to=seq selects one; default one step back);
//	                  409 when nothing older is retained
//
// Query responses carry the model generation, its age and the current
// health state, so a client can always tell when it is reading a
// last-known-good model. The query endpoints (/summary, /towers,
// /towers/{id}) run hardened: per-request timeout (RequestTimeout),
// concurrent-request limiter (maxConcurrent, excess → 429) and handler
// panic containment; the health and metrics probes bypass the limiter so
// an overloaded service can still be observed, and /stream is bounded by
// maxSSEClients instead.
//
// When Config.APIToken is set, the query and operator endpoints require
// "Authorization: Bearer <token>"; when Config.RateLimit is set, the
// query endpoints are additionally rate-limited per client IP (429 +
// Retry-After). /healthz, /readyz and /metrics are exempt from both so
// probes and scrapers never lose sight of the service. The rollback
// endpoint is authenticated but never rate-limited: an operator
// recovering from a bad model must not be throttled by the incident's
// own traffic.
//
// The handler is safe to use before Start and keeps answering after
// Close (from the last published model).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for i, rt := range routes {
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) })
		if rt.guards&guardHardened != 0 {
			h = s.hardened(h)
		}
		if rt.guards&guardRate != 0 {
			h = s.rateLimited(h)
		}
		if rt.guards&guardAuth != 0 {
			h = s.authed(h)
		}
		mux.HandleFunc(rt.pattern, counted(&s.met.requests[i], h))
	}
	return mux
}

// route is one endpoint of the API: its mux pattern, the name it is counted
// under on /metrics (metrics.requests is indexed like routes), its handler
// and which of the wrappers documented on Handler guard it.
type route struct {
	pattern, name string
	handle        func(*Server, http.ResponseWriter, *http.Request)
	guards        int
}

const (
	guardAuth     = 1 << iota // bearer token, when Config.APIToken is set
	guardRate                 // per-client rate limit, when Config.RateLimit is set
	guardHardened             // request timeout, concurrency limiter, panic containment
)

var routes = [...]route{
	{"GET /healthz", "healthz", (*Server).handleHealthz, 0},
	{"GET /readyz", "readyz", (*Server).handleReadyz, 0},
	{"GET /summary", "summary", (*Server).handleSummary, guardAuth | guardRate | guardHardened},
	{"GET /towers", "towers", (*Server).handleTowers, guardAuth | guardRate | guardHardened},
	{"GET /towers/{id}", "tower", (*Server).handleTower, guardAuth | guardRate | guardHardened},
	{"GET /stream", "stream", (*Server).handleStream, guardAuth | guardRate},
	{"GET /metrics", "metrics", (*Server).handleMetrics, 0},
	{"GET /models", "models", (*Server).handleModels, guardAuth | guardRate | guardHardened},
	{"POST /models/rollback", "rollback", (*Server).handleRollback, guardAuth | guardHardened},
}

func counted(c *atomic.Uint64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.Add(1)
		h(w, r)
	}
}

// maxConcurrent caps in-flight requests on the hardened endpoints.
const maxConcurrent = 64

// hardened wraps a query handler with the concurrent-request limiter
// (429 + Retry-After over maxConcurrent), the per-request timeout and
// panic containment.
func (s *Server) hardened(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.limiter <- struct{}{}:
			defer func() { <-s.limiter }()
		default:
			s.met.reqRejected.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "over the concurrent-request limit (%d)", maxConcurrent)
			return
		}
		s.timed(h)(w, r)
	}
}

// timed enforces RequestTimeout on one request. The handler writes into
// a buffered response; if it beats the deadline the buffer is flushed to
// the client, otherwise the client gets 503 and the handler's late write
// lands in the abandoned buffer. A panicking handler becomes a clean 500
// instead of a killed connection.
func (s *Server) timed(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.RequestTimeout <= 0 {
		return func(w http.ResponseWriter, r *http.Request) {
			if err := panicsafe.Call(func() error { h(w, r); return nil }); err != nil {
				s.met.reqPanics.Add(1)
				s.logf("serve: handler panic on %s: %v", r.URL.Path, err)
			}
		}
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		buf := &bufferedResponse{header: make(http.Header), status: http.StatusOK}
		done := make(chan error, 1)
		go func() {
			done <- panicsafe.Call(func() error { h(buf, r.WithContext(ctx)); return nil })
		}()
		select {
		case err := <-done:
			if err != nil {
				s.met.reqPanics.Add(1)
				s.logf("serve: handler panic on %s: %v", r.URL.Path, err)
				httpError(w, http.StatusInternalServerError, "internal error")
				return
			}
			buf.flushTo(w)
		case <-ctx.Done():
			s.met.reqTimeouts.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "request timed out after %v", s.cfg.RequestTimeout)
		}
	}
}

// bufferedResponse is the in-memory ResponseWriter the timeout wrapper
// hands to handlers, so a late handler never races the real connection.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header         { return b.header }
func (b *bufferedResponse) WriteHeader(status int)      { b.status = status }
func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

func (b *bufferedResponse) flushTo(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(b.status)
	w.Write(b.body.Bytes())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the connection is the only failure mode here
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, &struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// The response bodies the handlers once built as maps. Their fields are
// declared in sorted JSON-key order, the order encoding/json wrote the maps'
// keys in; testdata/responses.golden pins every body byte for byte.
type (
	healthzJSON struct {
		CompleteDays int    `json:"complete_days"`
		Health       string `json:"health"`
		ModelSeq     uint64 `json:"model_seq,omitempty"`
		Ready        bool   `json:"ready"`
		Status       string `json:"status"`
		Towers       int    `json:"towers"`
	}
	readyzJSON struct {
		Health          string   `json:"health"`
		ModelAgeSeconds *float64 `json:"model_age_seconds,omitempty"`
		ModelSeq        uint64   `json:"model_seq,omitempty"`
		Reason          string   `json:"reason"`
		Status          string   `json:"status"`
	}
	summaryJSON struct {
		Health string            `json:"health"`
		Model  *summaryModelJSON `json:"model,omitempty"`
		Window windowJSON        `json:"window"`
	}
	summaryModelJSON struct {
		AnomalousTowers int           `json:"anomalous_towers"`
		Clusters        []clusterJSON `json:"clusters"`
		Info            modelInfo     `json:"info"`
	}
	windowJSON struct {
		CompleteDays       int       `json:"complete_days"`
		Dropped            uint64    `json:"dropped"`
		DroppedFuture      uint64    `json:"dropped_future"`
		Ingested           uint64    `json:"ingested"`
		LatestSlotEnd      time.Time `json:"latest_slot_end"`
		QuarantineEvents   uint64    `json:"quarantine_events"`
		QuarantineReleases uint64    `json:"quarantine_releases"`
		Quarantined        int       `json:"quarantined"`
		Towers             int       `json:"towers"`
	}
	towersJSON struct {
		Health string     `json:"health"`
		Model  modelInfo  `json:"model"`
		Towers []towerRow `json:"towers"`
	}
	towerJSON struct {
		Anomalies []anomalyJSON   `json:"anomalies"`
		Cluster   int             `json:"cluster"`
		Forecast  *towerForecast  `json:"forecast,omitempty"`
		Health    string          `json:"health"`
		Model     modelInfo       `json:"model"`
		Region    string          `json:"region"`
		Tower     int             `json:"tower"`
		Window    *towerStatsJSON `json:"window,omitempty"`
	}
	towerStatsJSON struct {
		LastSlotBytes    float64 `json:"last_slot_bytes"`
		MeanBytesPerSlot float64 `json:"mean_bytes_per_slot"`
		StdBytesPerSlot  float64 `json:"std_bytes_per_slot"`
	}
	modelsJSON struct {
		Accepted           uint64                  `json:"accepted"`
		ConsecutiveRejects uint64                  `json:"consecutive_rejects"`
		CurrentSeq         uint64                  `json:"current_seq,omitempty"`
		Generations        []generationJSON        `json:"generations"`
		Rejected           uint64                  `json:"rejected"`
		RejectedByReason   map[RejectReason]uint64 `json:"rejected_by_reason"`
		Rollbacks          struct {
			Auto   uint64 `json:"auto"`
			Manual uint64 `json:"manual"`
		} `json:"rollbacks"`
	}
	rollbackJSON struct {
		Serving modelInfo `json:"serving"`
		Status  string    `json:"status"`
	}
)

// generationJSON is one entry of the /models history listing (typed before
// the other bodies; only Stats was a map, so only Stats is sorted).
type generationJSON struct {
	Seq        uint64    `json:"seq"`
	AcceptedAt time.Time `json:"accepted_at"`
	AgeSeconds float64   `json:"age_seconds"`
	Current    bool      `json:"current"`
	Towers     int       `json:"towers"`
	Days       int       `json:"days"`
	K          int       `json:"k"`
	Stats      struct {
		BacktestNRMSE *float64 `json:"backtest_nrmse"`
		Completeness  float64  `json:"completeness"`
		DBI           *float64 `json:"dbi"`
		Silhouette    *float64 `json:"silhouette"`
	} `json:"stats"`
}

// jsonFloat sanitises a float for JSON encoding: NaN and ±Inf (legal in
// the Prometheus exposition, fatal to encoding/json) become nil, which
// encodes as null.
func jsonFloat(f float64) *float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	return &f
}

// handleHealthz is liveness only: it always answers 200 while the
// process can answer at all. Routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sum := s.cfg.Window.Summary()
	m := s.model()
	h, _ := s.healthNow()
	resp := healthzJSON{Status: "ok", Ready: m != nil, Health: h.String(), Towers: sum.Towers, CompleteDays: sum.CompleteDays}
	if m != nil {
		resp.ModelSeq = m.Seq
	}
	writeJSON(w, http.StatusOK, &resp)
}

// handleReadyz is readiness with load-balancer semantics: 200 while the
// service holds a trustworthy (healthy or degraded last-known-good)
// model, 503 + Retry-After once it is stale, so balancers drain the
// instance while direct clients can still query the last-good model.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h, reason := s.healthNow()
	resp := readyzJSON{Health: h.String(), Reason: reason, Status: "ready"}
	if m := s.model(); m != nil {
		age := time.Since(m.ModeledAt).Seconds()
		resp.ModelSeq, resp.ModelAgeSeconds = m.Seq, &age
	}
	status := http.StatusOK
	if h == Stale {
		resp.Status, status = "unready", http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(int(s.healthInterval().Seconds())+1))
	}
	writeJSON(w, status, &resp)
}

// info is a generation's identity with its age and staleness as of now.
func (s *Server) info(rm *readModel) modelInfo {
	info := rm.modelInfo
	age := time.Since(info.ModeledAt)
	info.AgeSeconds, info.Stale = age.Seconds(), age > s.staleAfter()
	return info
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	sum := s.cfg.Window.Summary()
	h, _ := s.healthNow()
	resp := summaryJSON{
		Health: h.String(),
		Window: windowJSON{
			Towers:             sum.Towers,
			Ingested:           sum.Ingested,
			Dropped:            sum.Dropped,
			DroppedFuture:      sum.DroppedFuture,
			LatestSlotEnd:      sum.LatestSlotEnd,
			CompleteDays:       sum.CompleteDays,
			Quarantined:        sum.Quarantined,
			QuarantineEvents:   sum.QuarantineEvents,
			QuarantineReleases: sum.QuarantineReleases,
		},
	}
	if m := s.model(); m != nil {
		resp.Model = &summaryModelJSON{Info: s.info(m.readModel), Clusters: m.clusters, AnomalousTowers: m.anomalous}
	}
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleTowers(w http.ResponseWriter, r *http.Request) {
	m := s.model()
	if m == nil {
		httpError(w, http.StatusServiceUnavailable, "no model published yet")
		return
	}
	h, _ := s.healthNow()
	writeJSON(w, http.StatusOK, &towersJSON{Health: h.String(), Model: s.info(m.readModel), Towers: m.towers})
}

// anomalyOverride parses the ?threshold= and ?min_rel_dev= query
// parameters. "off" (or any negative number) maps to the detector's
// Disabled sentinel; absent parameters keep the server's configuration.
func anomalyOverride(q url.Values, base anomaly.Options) (anomaly.Options, bool, error) {
	override := false
	parse := func(key string, dst *float64) error {
		v := q.Get(key)
		if v == "" {
			return nil
		}
		override = true
		if v == "off" {
			*dst = anomaly.Disabled
			return nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("bad %s %q: %v", key, v, err)
		}
		*dst = f
		return nil
	}
	if err := parse("threshold", &base.Threshold); err != nil {
		return base, false, err
	}
	if err := parse("min_rel_dev", &base.MinRelativeDeviation); err != nil {
		return base, false, err
	}
	return base, override, nil
}

// handleTower answers one tower from the read model; an anomaly-filter
// override re-scores the tower's row of the published raw matrix live,
// which a generation republished by rollback no longer holds (409).
func (s *Server) handleTower(w http.ResponseWriter, r *http.Request) {
	m := s.model()
	if m == nil {
		httpError(w, http.StatusServiceUnavailable, "no model published yet")
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad tower id %q", r.PathValue("id"))
		return
	}
	row, ok := m.row(id)
	if !ok {
		httpError(w, http.StatusNotFound, "tower %d is not in the modeled window", id)
		return
	}

	anomalies := m.anomalies[row]
	if opts, override, err := anomalyOverride(r.URL.Query(), s.cfg.Anomaly); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	} else if override {
		if m.raw == nil {
			httpError(w, http.StatusConflict, "model #%d was republished by a rollback and keeps no traffic to re-score; drop ?threshold= and ?min_rel_dev=", m.Seq)
			return
		}
		fresh, derr := anomaly.Detect(m.raw[row], m.Days, opts)
		if derr != nil {
			httpError(w, http.StatusInternalServerError, "re-detect: %v", derr)
			return
		}
		anomalies = m.resolve(fresh)
	}

	h, _ := s.healthNow()
	resp := towerJSON{
		Tower:     id,
		Cluster:   m.towers[row].Cluster,
		Region:    m.towers[row].Region,
		Model:     s.info(m.readModel),
		Health:    h.String(),
		Anomalies: anomalies,
	}
	if stats, ok := s.cfg.Window.TowerStats(id); ok {
		resp.Window = &towerStatsJSON{MeanBytesPerSlot: stats.Mean, StdBytesPerSlot: stats.Std, LastSlotBytes: stats.LastSlotBytes}
	}
	if fc := &m.forecasts[row]; fc.Valid {
		resp.Forecast = fc
	}
	writeJSON(w, http.StatusOK, &resp)
}

// handleModels lists the retained accepted generations, newest first,
// with their acceptance stats and the admission/rollback counters —
// what an operator reads before deciding whether (and where) to roll
// back.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.admMu.Lock()
	gens := s.hist.list()
	s.admMu.Unlock()
	resp := modelsJSON{
		Accepted:           s.met.modelCycles.Load(),
		ConsecutiveRejects: s.met.modelConsecRejects.Load(),
		Generations:        make([]generationJSON, len(gens)),
		Rejected:           s.met.modelRejected.Load(),
		RejectedByReason:   make(map[RejectReason]uint64, len(rejectReasons)),
	}
	for i, reason := range rejectReasons {
		resp.RejectedByReason[reason] = s.met.rejected[i].Load()
	}
	resp.Rollbacks.Auto, resp.Rollbacks.Manual = s.met.rollbackAuto.Load(), s.met.rollbackManual.Load()
	cur := s.model()
	if cur != nil {
		resp.CurrentSeq = cur.Seq
	}
	for i, g := range gens {
		gj := &resp.Generations[i]
		gj.Seq, gj.AcceptedAt, gj.AgeSeconds = g.rm.Seq, g.acceptedAt, time.Since(g.rm.ModeledAt).Seconds()
		gj.Current = cur != nil && g.rm.Seq == cur.Seq
		gj.Towers, gj.Days, gj.K = g.rm.Towers, g.rm.Days, g.rm.K
		gj.Stats.Completeness = g.stats.Completeness
		gj.Stats.DBI, gj.Stats.Silhouette, gj.Stats.BacktestNRMSE = jsonFloat(g.stats.DBI), jsonFloat(g.stats.Silhouette), jsonFloat(g.stats.BacktestNRMSE)
	}
	writeJSON(w, http.StatusOK, &resp)
}

// handleRollback republishes an older accepted generation: ?to=seq
// selects one, the default steps back exactly one generation. The swap
// runs under the admission mutex so it cannot race an in-flight
// publication; it also clears the consecutive-rejection streak, since
// the operator has explicitly chosen what to serve.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	var toSeq uint64
	if v := r.URL.Query().Get("to"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			httpError(w, http.StatusBadRequest, "bad to=%q: want a positive generation seq", v)
			return
		}
		toSeq = n
	}
	s.admMu.Lock()
	g, err := s.hist.rollback(toSeq)
	if err == nil {
		s.cur.Store(&model{readModel: g.rm})
		s.met.rollbackManual.Add(1)
		s.met.modelConsecRejects.Store(0)
	}
	s.admMu.Unlock()
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	s.logf("serve: manual rollback to model #%d (modeled %s)", g.rm.Seq, g.rm.ModeledAt.Format(time.RFC3339))
	writeJSON(w, http.StatusOK, &rollbackJSON{Status: "rolled back", Serving: s.info(g.rm)})
}

// anomalyEvent is the payload of one SSE "anomaly" event: the tower, the
// anomaly's fields inline, and the generation that published it.
type anomalyEvent struct {
	Tower int `json:"tower"`
	anomalyJSON
	ModelSeq uint64 `json:"model_seq"`
}

// broker fans anomaly events out to SSE subscribers. Slow subscribers
// never block the modeling loop: each client has a buffered channel and
// events beyond its capacity are dropped (and counted).
type broker struct {
	mu      sync.Mutex
	clients map[chan []byte]struct{}
	dropped atomic.Uint64
}

func newBroker() *broker {
	return &broker{clients: make(map[chan []byte]struct{})}
}

// subscriberBuffer bounds each SSE client's in-flight event queue, and
// maxSSEClients the number of concurrent /stream subscribers.
const (
	subscriberBuffer = 64
	maxSSEClients    = 32
)

// subscribe registers a new client unless maxSSEClients are already
// connected.
func (b *broker) subscribe() (chan []byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.clients) >= maxSSEClients {
		return nil, false
	}
	ch := make(chan []byte, subscriberBuffer)
	b.clients[ch] = struct{}{}
	return ch, true
}

func (b *broker) unsubscribe(ch chan []byte) {
	b.mu.Lock()
	delete(b.clients, ch)
	b.mu.Unlock()
}

func (b *broker) publish(ev anomalyEvent) {
	payload, err := json.Marshal(ev)
	if err != nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for ch := range b.clients {
		select {
		case ch <- payload:
		default:
			b.dropped.Add(1)
		}
	}
}

func (b *broker) clientCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.clients)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, ok := s.broker.subscribe()
	if !ok {
		s.met.sseRejected.Add(1)
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "over the SSE client limit (%d)", maxSSEClients)
		return
	}
	defer s.broker.unsubscribe(ch)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	var seq uint64
	if m := s.model(); m != nil {
		seq = m.Seq
	}
	fmt.Fprintf(w, ": connected model_seq=%d\n\n", seq)
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case payload := <-ch:
			fmt.Fprintf(w, "event: anomaly\ndata: %s\n\n", payload)
			fl.Flush()
		}
	}
}
