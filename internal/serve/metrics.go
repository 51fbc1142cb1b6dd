package serve

// metrics.go is /metrics: one table of the service's operational numbers,
// two encodings. A number is one row — Prometheus family and HELP text,
// counter or gauge, optional label, JSON path, reader — and both renderers
// walk the same rows, so the JSON document and the Prometheus text
// exposition (format 0.0.4, no client library: it is line-oriented text)
// cannot drift apart. Only the string-valued facts are shaped per encoding:
// the health state and each supervised loop's state are JSON strings and
// one-hot labelled Prometheus gauges. JSON is the default; Prometheus is
// selected with ?format=prom or content negotiation (see wantsPrometheus).

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// metric is one row of the /metrics table.
type metric struct {
	family string // Prometheus metric family
	help   string // its HELP text; rows of one family are adjacent and share it
	gauge  bool   // TYPE gauge instead of counter
	// labelKey and labelVal are the optional label pair of a family with one
	// row per member; labelVal is also the number's key under json.
	labelKey, labelVal string
	// json is the dotted path of the number (of its parent object, for a
	// labelled row) in the JSON document; a second, space-separated path
	// carries the same number under a legacy name.
	json string
	// jsonMillis renders the JSON number as whole milliseconds of a reading
	// that (like every Prometheus duration) is in seconds.
	jsonMillis bool
	// ofModel rows describe the published model and are left out until
	// there is one.
	ofModel bool
	read    func() float64 // takes the number at scrape time
}

const ingestWaitHelp = "Seconds one ingest stage spent blocked on the other: bound=source is the cleaning goroutine waiting for a decoded batch, bound=window the decoding goroutine waiting for a free buffer."

// metricTable builds the rows over this server's counters. Adding an
// operational number is adding a row here (and a counter, if code ticks it).
func (s *Server) metricTable() []metric {
	m := &s.met
	count := func(n *atomic.Uint64) func() float64 {
		return func() float64 { return float64(n.Load()) }
	}
	seconds := func(nanos *atomic.Int64) func() float64 {
		return func() float64 { return time.Duration(nanos.Load()).Seconds() }
	}
	t := []metric{
		{family: "repro_ingest_records_total", help: "Trace records ingested into the sliding window.", json: "ingest.records", read: count(&m.ingestRecords)},
		{family: "repro_ingest_batches_total", help: "Trace batches ingested.", json: "ingest.batches", read: count(&m.ingestBatches)},
		{family: "repro_ingest_errors_total", help: "Ingest loop failures (supervised restarts included).", json: "ingest.errors", read: count(&m.ingestErrors)},
		// Which ingest stage is waiting for the other: a feed that cannot keep
		// the cleaner busy grows the first row, a cleaner + window that cannot
		// keep up with the feed grows the second.
		{family: "repro_ingest_wait_seconds_total", help: ingestWaitHelp, labelKey: "bound", labelVal: "source", json: "ingest.wait_seconds", read: seconds(&m.ingestWaits.Consumer)},
		{family: "repro_ingest_wait_seconds_total", help: ingestWaitHelp, labelKey: "bound", labelVal: "window", json: "ingest.wait_seconds", read: seconds(&m.ingestWaits.Producer)},
		// The admission gate accepts exactly the cycles that publish.
		{family: "repro_model_cycles_total", help: "Modeling cycles that published a model.", json: "model.cycles admission.accepted", read: count(&m.modelCycles)},
		{family: "repro_model_warmup_skips_total", help: "Modeling cycles skipped while the window warms up.", json: "model.warmup_skips", read: count(&m.modelSkips)},
		{family: "repro_model_failures_total", help: "Modeling cycles that failed.", json: "model.failures", read: count(&m.modelFailures)},
		{family: "repro_model_consecutive_failures", help: "Failed modeling cycles since the last success.", gauge: true, json: "model.consecutive_failures", read: count(&m.modelConsecFails)},
		{family: "repro_model_last_cycle_seconds", help: "Duration of the last modeling cycle.", gauge: true, json: "model.last_cycle_millis", jsonMillis: true, read: seconds(&m.lastModelNanos)},
		{family: "repro_model_seq", help: "Generation number of the published model.", gauge: true, json: "model.seq", ofModel: true, read: func() float64 { return float64(s.model().Seq) }},
		{family: "repro_model_age_seconds", help: "Age of the published model.", gauge: true, json: "model.age_seconds", ofModel: true, read: func() float64 { return time.Since(s.model().ModeledAt).Seconds() }},
	}
	for i, name := range stageNames {
		t = append(t, metric{family: "repro_model_stage_seconds", help: "Wall time of the most recent run of each modeling stage.", gauge: true,
			labelKey: "stage", labelVal: name, json: "model.stage_seconds", read: seconds(&m.stageNanos[i])})
	}
	t = append(t, metric{family: "repro_model_rejected_candidates_total", help: "Candidate models refused by the admission gate.", json: "admission.rejected", read: count(&m.modelRejected)})
	for i, r := range rejectReasons {
		t = append(t, metric{family: "repro_model_rejected_total", help: "Candidate models refused by the admission gate, by failed check.",
			labelKey: "reason", labelVal: string(r), json: "admission.rejected_by_reason", read: count(&m.rejected[i])})
	}
	t = append(t, metric{family: "repro_model_consecutive_rejects", help: "Consecutive candidate rejections since the last acceptance or rollback.", gauge: true, json: "admission.consecutive_rejects", read: count(&m.modelConsecRejects)})
	for _, rb := range []struct {
		kind string
		n    *atomic.Uint64
	}{{"auto", &m.rollbackAuto}, {"manual", &m.rollbackManual}} {
		t = append(t, metric{family: "repro_model_rollback_total", help: "Model rollbacks by kind.",
			labelKey: "kind", labelVal: rb.kind, json: "admission.rollbacks", read: count(rb.n)})
	}
	win := s.cfg.Window.Summary
	t = append(t,
		metric{family: "repro_window_quarantined_towers", help: "Towers currently quarantined by the ingest guard.", gauge: true, json: "window.quarantined", read: func() float64 { return float64(win().Quarantined) }},
		metric{family: "repro_window_quarantine_events_total", help: "Tower quarantine entries since start.", json: "window.quarantine_events", read: func() float64 { return float64(win().QuarantineEvents) }},
		metric{family: "repro_window_quarantine_releases_total", help: "Tower quarantine releases since start.", json: "window.quarantine_releases", read: func() float64 { return float64(win().QuarantineReleases) }},
		metric{family: "repro_window_dropped_future_total", help: "Records dropped by the clock-skew guard.", json: "window.dropped_future", read: func() float64 { return float64(win().DroppedFuture) }},
	)
	for i, rt := range routes {
		t = append(t, metric{family: "repro_requests_total", help: "HTTP requests by endpoint.",
			labelKey: "endpoint", labelVal: rt.name, json: "requests", read: count(&m.requests[i])})
	}
	return append(t,
		metric{family: "repro_requests_rejected_total", help: "Requests refused by the concurrent-request limiter.", json: "requests.rejected", read: count(&m.reqRejected)},
		metric{family: "repro_requests_timeout_total", help: "Requests cut off by the per-request timeout.", json: "requests.timeouts", read: count(&m.reqTimeouts)},
		metric{family: "repro_requests_panic_total", help: "Handler panics converted to 500s.", json: "requests.panics", read: count(&m.reqPanics)},
		metric{family: "repro_requests_unauthorized_total", help: "Requests refused by bearer-token auth.", json: "requests.unauthorized", read: count(&m.reqUnauthorized)},
		metric{family: "repro_requests_ratelimited_total", help: "Requests refused by the per-client rate limiter.", json: "requests.ratelimited", read: count(&m.reqRateLimited)},
		metric{family: "repro_stream_clients", help: "Connected SSE clients.", gauge: true, json: "stream.clients", read: func() float64 { return float64(s.broker.clientCount()) }},
		metric{family: "repro_stream_dropped_total", help: "SSE events dropped on slow clients.", json: "stream.dropped", read: count(&s.broker.dropped)},
		metric{family: "repro_stream_rejected_total", help: "SSE connections refused over the client cap.", json: "stream.rejected", read: count(&m.sseRejected)},
		metric{family: "repro_snapshot_saves_total", help: "Snapshot generations written and verified.", json: "snapshots.saves", read: count(&m.snapshots)},
		metric{family: "repro_snapshot_skips_total", help: "Snapshots skipped on purpose (empty or stale window).", json: "snapshots.skips", read: count(&m.snapshotSkips)},
		metric{family: "repro_snapshot_failures_total", help: "Snapshot attempts that failed.", json: "snapshots.failures", read: count(&m.snapshotFailures)},
		metric{family: "repro_health_transitions_total", help: "Health state transitions observed by the health loop.", json: "health.transitions", read: count(&m.healthTransitions)},
	)
}

// wantsPrometheus reports whether the request asked for the Prometheus
// text exposition: explicitly via ?format=prom|prometheus, or through an
// Accept header that prefers text/plain and never mentions JSON (the
// Prometheus scraper sends "text/plain;version=0.0.4" variants).
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

// handleMetrics renders the table in the encoding the request selected.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		s.writePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.metricsJSON())
}

// metricsJSON renders the table as the nested /metrics JSON document.
func (s *Server) metricsJSON() map[string]any {
	doc := map[string]any{}
	// set stores v at the dotted path, under one more key when leaf is set
	// (a label value, which may itself contain dots).
	set := func(path, leaf string, v any) {
		keys := strings.Split(path, ".")
		if leaf != "" {
			keys = append(keys, leaf)
		}
		obj := doc
		for _, k := range keys[:len(keys)-1] {
			child, ok := obj[k].(map[string]any)
			if !ok {
				child = map[string]any{}
				obj[k] = child
			}
			obj = child
		}
		obj[keys[len(keys)-1]] = v
	}
	for _, row := range s.rows {
		if row.ofModel && s.model() == nil {
			continue
		}
		v := row.read()
		if row.jsonMillis {
			v = math.Trunc(v * 1000)
		}
		for _, path := range strings.Fields(row.json) {
			set(path, row.labelVal, v)
		}
	}
	h, _ := s.healthNow()
	set("health.state", "", h.String())
	for _, ls := range s.loops() {
		at := "loops." + ls.name
		set(at, "state", loopStateName(ls.state.Load()))
		set(at, "restarts", ls.restarts.Load())
		if err := ls.LastErr(); err != nil {
			set(at, "last_error", err.Error())
		}
	}
	return doc
}

// writePrometheus renders the table as repro_* metric families with HELP
// and TYPE metadata. The string-valued states are one-hot labelled gauges
// so dashboards can match on the label instead of decoding an enum.
func (s *Server) writePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	head := func(family, help string, gauge bool) string {
		typ := "counter"
		if gauge {
			typ = "gauge"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", family, help, family, typ)
		return family
	}
	family := ""
	for _, row := range s.rows {
		if row.ofModel && s.model() == nil {
			continue
		}
		if row.family != family {
			family = head(row.family, row.help, row.gauge)
		}
		name := family
		if row.labelKey != "" {
			name = fmt.Sprintf("%s{%s=%q}", family, row.labelKey, row.labelVal)
		}
		fmt.Fprintf(w, "%s %s\n", name, strconv.FormatFloat(row.read(), 'f', -1, 64))
	}

	h, _ := s.healthNow()
	family = head("repro_health", "One-hot health state of the service.", true)
	for _, st := range []Health{Healthy, Degraded, Stale} {
		v := 0
		if st == h {
			v = 1
		}
		fmt.Fprintf(w, "%s{state=%q} %d\n", family, st, v)
	}
	family = head("repro_loop_up", "One-hot state of each supervised loop.", true)
	for _, ls := range s.loops() {
		fmt.Fprintf(w, "%s{loop=%q,state=%q} 1\n", family, ls.name, loopStateName(ls.state.Load()))
	}
	family = head("repro_loop_restarts_total", "Supervised restarts per loop.", false)
	for _, ls := range s.loops() {
		fmt.Fprintf(w, "%s{loop=%q} %d\n", family, ls.name, ls.restarts.Load())
	}
}
