package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/window"
)

// serve-mixed: the HTTP plane of a 400-tower service under driven load
// while ingest and re-modeling run beside it. Days 0–14 (+1 slot) arrive
// as time-major CSV for the cold starts; the following replayDays are
// replayed time-paced during the driven phase.
//
// The city's calendar is moved to start on a Monday so that the replayed
// days are Monday to Friday: with cmd/served's default quarantine guard
// (8 robust z-scores) every weekend midday quarantines the towers with the
// strongest weekday/weekend contrast for a few hours, models built
// meanwhile leave them out, and lookups of those towers answer 404. On
// weekdays no tower is quarantined and no request fails.
const (
	mixedTowers = 400
	replayDays  = 5
	coldStarts  = 3
	drivenRate  = 1000 // requests per second, open loop
)

type mixedInput struct {
	city *synth.City
	log  *cdr // csv: days 0–14 + 1 slot; tail: the replayDays after
	// slotEnd[j] is the index in log.tail just past the records of the
	// j-th replayed slot (tail slots are contiguous, time-major).
	slotEnd []int
	// firstTailSlot is the grid slot of slotEnd[0].
	firstTailSlot int
}

func buildMixedInput(seed int64) (*mixedInput, error) {
	cfg := cityConfig(mixedTowers, windowDays+replayDays, seed)
	for cfg.Start.Weekday() != time.Monday {
		cfg.Start = cfg.Start.AddDate(0, 0, 1)
	}
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		return nil, err
	}
	series, err := generateSeries(city)
	if err != nil {
		return nil, err
	}
	firstTailSlot := windowDays*cfg.SlotsPerDay() + 1
	log, err := renderCDR(city, series, synth.LogOptions{TimeMajor: true}, city.SlotStart(firstTailSlot))
	if err != nil {
		return nil, err
	}
	in := &mixedInput{city: city, log: log, firstTailSlot: firstTailSlot}
	slotDur := time.Duration(cfg.SlotMinutes) * time.Minute
	for i, rec := range log.tail {
		j := int(rec.Start.Sub(cfg.Start)/slotDur) - firstTailSlot
		for len(in.slotEnd) <= j {
			in.slotEnd = append(in.slotEnd, i)
		}
		in.slotEnd[j] = i + 1
	}
	return in, nil
}

// feed is the service's Config.Source: first the CSV through the serial
// scanner, unpaced; then nothing until the driven phase starts; then the
// tail records, each slot released at its share of the phase. It runs on
// the service's ingest goroutine, so pacing needs no goroutine of its own.
type feed struct {
	in      *mixedInput
	scanner *trace.Scanner
	pos     int           // next tail record
	slot    int           // tail slot pos belongs to
	release chan struct{} // closed when the driven phase starts
	stop    chan struct{} // closed to end the feed early
	t0      time.Time     // start of the driven phase; set before release closes
	perSlot time.Duration // wall time per replayed slot
	// handed[j] is when (Unix ns) the last record of tail slot j was handed
	// to the service; 0 until then.
	handed []atomic.Int64
}

func newFeed(in *mixedInput) (*feed, error) {
	sc, err := trace.NewScanner(bytes.NewReader(in.log.csv))
	if err != nil {
		return nil, err
	}
	return &feed{
		in:      in,
		scanner: sc,
		release: make(chan struct{}),
		stop:    make(chan struct{}),
		handed:  make([]atomic.Int64, len(in.slotEnd)),
	}, nil
}

// startReplay begins the paced tail: its slots spread evenly over d.
func (f *feed) startReplay(t0 time.Time, d time.Duration) {
	f.t0 = t0
	f.perSlot = d / time.Duration(len(f.in.slotEnd))
	close(f.release)
}

func (f *feed) Next() (trace.Record, error) {
	var one [1]trace.Record
	for {
		n, err := f.NextBatch(one[:])
		if n == 1 {
			return one[0], nil
		}
		if err != nil {
			return trace.Record{}, err
		}
	}
}

func (f *feed) NextBatch(dst []trace.Record) (int, error) {
	if f.scanner != nil {
		n, err := f.scanner.NextBatch(dst)
		if err == nil {
			return n, nil
		}
		f.scanner.Close()
		f.scanner = nil
		if !errors.Is(err, io.EOF) {
			return n, err
		}
		if n > 0 {
			return n, nil
		}
	}
	select {
	case <-f.release:
	case <-f.stop:
		return 0, io.EOF
	}
	if f.pos == len(f.in.log.tail) {
		return 0, io.EOF
	}
	for f.in.slotEnd[f.slot] == f.pos { // slots without records
		f.slot++
	}
	timer := time.NewTimer(time.Until(f.t0.Add(time.Duration(f.slot) * f.perSlot)))
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-f.stop:
		return 0, io.EOF
	}
	n := copy(dst, f.in.log.tail[f.pos:f.in.slotEnd[f.slot]])
	f.pos += n
	if f.pos == f.in.slotEnd[f.slot] {
		f.handed[f.slot].Store(time.Now().UnixNano())
	}
	return n, nil
}

// service is one in-process instance of what cmd/served runs: window,
// server with the feed as its source, and its handler behind a real
// net/http server on a loopback TCP listener.
type service struct {
	win  *window.Window
	cfg  serve.Config
	srv  *serve.Server
	feed *feed
	http *http.Server
	base string
}

func startService(ctx context.Context, in *mixedInput) (*service, time.Time, error) {
	w, err := newServiceWindow(in.city)
	if err != nil {
		return nil, time.Time{}, err
	}
	f, err := newFeed(in)
	if err != nil {
		return nil, time.Time{}, err
	}
	cfg := serviceConfig(in.city, w, f)
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, time.Time{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, time.Time{}, err
	}
	s := &service{win: w, cfg: cfg, srv: srv, feed: f, base: "http://" + ln.Addr().String()}
	s.http = &http.Server{Handler: srv.Handler()}
	go s.http.Serve(ln) // returns once close() shuts the server down
	started := time.Now()
	srv.Start(ctx)
	return s, started, nil
}

func (s *service) close() {
	close(s.feed.stop)
	s.srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.http.Shutdown(shutdownCtx); err != nil {
		s.http.Close()
	}
}

// coldStart brings a fresh service from Start to its first published
// model: the CSV is ingested unpaced, and once the window shows 14
// complete days the harness runs the first cycle.
func coldStart(ctx context.Context, in *mixedInput) (*service, float64, error) {
	s, started, err := startService(ctx, in)
	if err != nil {
		return nil, 0, err
	}
	for s.win.Summary().CompleteDays < windowDays {
		if ctx.Err() != nil {
			s.close()
			return nil, 0, ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.srv.RemodelNow(ctx); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("first modeling cycle: %w", err)
	}
	return s, time.Since(started).Seconds(), nil
}

// listTowers returns the tower ids of the /towers listing.
func listTowers(base string) ([]int, error) {
	resp, err := http.Get(base + "/towers")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Towers []struct {
			Tower int `json:"tower"`
		} `json:"towers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || len(body.Towers) == 0 {
		return nil, fmt.Errorf("/towers: status %d, %d towers", resp.StatusCode, len(body.Towers))
	}
	ids := make([]int, len(body.Towers))
	for i, t := range body.Towers {
		ids[i] = t.Tower
	}
	return ids, nil
}

// subscribeSSE counts the anomaly events one passive /stream subscriber
// receives until ctx ends.
func subscribeSSE(ctx context.Context, base string, events *atomic.Int64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: anomaly") {
			events.Add(1)
		}
	}
	return nil // the read ends when ctx is cancelled
}

// sseDropped reads the broker's drop counter off /metrics.
func sseDropped(h http.Handler) float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var body struct {
		Stream struct {
			Dropped float64 `json:"dropped"`
		} `json:"stream"`
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &body) // a bad body reads as zero drops
	return body.Stream.Dropped
}

// drivenPhase is phase 3: the open-loop schedule against the service
// while the feed replays the tail and the harness re-models once a second.
type drivenResult struct {
	load        *loadStats
	cycles      []float64 // RemodelNow wall times
	cycleErrs   []error
	lagMS       []float64 // per replayed slot
	sseEvents   int64
	sseDropped  float64
	allocMB     float64
	summaryTail window.Summary
}

func drivenPhase(ctx context.Context, s *service, sched []request, slots int, doers []doer, traced bool) *drivenResult {
	res := &drivenResult{}
	var (
		remodeling atomic.Bool
		events     atomic.Int64
		wg         sync.WaitGroup
	)
	sseCtx, stopSSE := context.WithCancel(ctx)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = subscribeSSE(sseCtx, s.base, &events) // a refused subscription shows as zero events
	}()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now().Add(50 * time.Millisecond)
	phase := time.Duration(slots) * time.Second
	s.feed.startReplay(t0, phase)
	end := t0.Add(phase)

	// One modeling cycle per second, started on the slot boundary (or as
	// soon as the previous one has finished).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < slots; i++ {
			time.Sleep(time.Until(t0.Add(time.Duration(i) * time.Second)))
			if !time.Now().Before(end) {
				return
			}
			remodeling.Store(true)
			start := time.Now()
			err := s.srv.RemodelNow(ctx)
			res.cycles = append(res.cycles, time.Since(start).Seconds())
			remodeling.Store(false)
			if err != nil {
				res.cycleErrs = append(res.cycleErrs, err)
			}
		}
	}()

	// Ingest lag: when the window's clock first covers each replayed slot.
	covered := make([]time.Time, len(s.feed.handed))
	slotDur := time.Duration(s.win.Options().SlotMinutes) * time.Minute
	firstEnd := s.win.Options().Start.Add(time.Duration(s.feed.in.firstTailSlot+1) * slotDur)
	pollDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := 0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for next < len(covered) {
			select {
			case <-pollDone:
				return
			case now := <-tick.C:
				latest := s.win.Summary().LatestSlotEnd
				for next < len(covered) && !latest.Before(firstEnd.Add(time.Duration(next)*slotDur)) {
					covered[next] = now
					next++
				}
			}
		}
	}()

	res.load = driveOpenLoop(sched, slots, t0, doers, &remodeling, traced)
	time.Sleep(time.Until(end.Add(100 * time.Millisecond))) // let the last slot land
	runtime.ReadMemStats(&after)
	res.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	close(pollDone)
	stopSSE()
	wg.Wait()

	res.sseEvents = events.Load()
	res.sseDropped = sseDropped(s.srv.Handler())
	res.summaryTail = s.win.Summary()
	for j, at := range covered {
		if handed := s.feed.handed[j].Load(); !at.IsZero() && handed != 0 {
			res.lagMS = append(res.lagMS, max(0, float64(at.UnixNano()-handed)/1e6))
		}
	}
	return res
}

func runServeMixed(ctx context.Context, opts runOpts, r *report) error {
	var in *mixedInput
	err := r.timeSetup(opts, func() (err error) {
		in = nil
		in, err = buildMixedInput(opts.seed)
		return err
	})
	if err != nil {
		return err
	}

	// Phase 1: cold starts. The last service stays up for phases 2 and 3.
	var (
		svc       *service
		coldSecs  []float64
		coldAlloc []float64
	)
	for i := 0; i < coldStarts; i++ {
		if svc != nil {
			svc.close()
			svc = nil
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, secs, err := coldStart(ctx, in)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		svc = s
		pub, err := readPublished(s.srv.Handler())
		if err == nil && pub.Seq != 1 {
			err = fmt.Errorf("cold start published model #%d, want #1", pub.Seq)
		}
		r.op(err)
		coldSecs = append(coldSecs, secs)
		coldAlloc = append(coldAlloc, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	}
	defer svc.close()
	if !opts.traced {
		r.sample("to_model_s", coldSecs)
		r.sample("alloc_mb", coldAlloc)
		r.notef("to_model_s here is cold_start_s: Start → first published model from %d CSV bytes (%d records)", len(in.log.csv), in.log.records)
	}
	r.sample("serve.cold_start_s", coldSecs)

	towers, err := listTowers(svc.base)
	if err != nil {
		return err
	}
	nproc := runtime.GOMAXPROCS(0)
	doers := make([]doer, nproc)
	for i := range doers {
		var closeConn func()
		doers[i], closeConn = newHTTPDoer(svc.base, opts.traced)
		defer closeConn()
	}

	// Phase 2: closed-loop capacity on point lookups, ingest idle.
	capacity, completed, failed, failures := driveClosedLoop(time.Duration(opts.seconds/4*float64(time.Second)), towers, doers)
	r.ops(completed, failed, failures)
	r.set("serve.query_capacity_rps", capacity)

	// Phase 3: driven load beside replayed ingest and re-modeling.
	slots := int(opts.seconds)
	sched := buildSchedule(rand.New(rand.NewSource(opts.seed)), drivenRate, slots, towers)
	driven := drivenPhase(ctx, svc, sched, slots, doers, opts.traced)
	load := driven.load
	r.ops(load.sent, load.failed, load.failures)
	cycleFailures := make([]string, len(driven.cycleErrs))
	for i, err := range driven.cycleErrs {
		cycleFailures[i] = fmt.Sprintf("modeling cycle under load: %v", err)
	}
	r.ops(len(driven.cycles), len(cycleFailures), cycleFailures)

	ms := func(seconds float64) float64 { return seconds * 1e3 }
	r.set("serve.query_p50_ms", ms(slotMedian(load.perSlot, 0.50)))
	r.set("serve.query_p99_ms", ms(slotMedian(load.perSlot, 0.99)))
	r.set("serve.query_all_p99_ms", ms(load.all.quantile(0.99)))
	r.set("serve.query_all_p999_ms", ms(load.all.quantile(0.999)))
	r.set("serve.driven_alloc_mb", driven.allocMB)
	for ep, name := range endpointNames {
		r.set("serve."+name+"_p99_ms", ms(load.byEndpoint[ep].quantile(0.99)))
	}
	r.set("serve.query_during_remodel_p99_ms", ms(load.duringRemodel.quantile(0.99)))
	r.set("serve.query_idle_p99_ms", ms(load.idle.quantile(0.99)))
	r.sample("serve.remodel_under_load_s", driven.cycles)
	r.set("serve.remodel_cycles", float64(len(driven.cycles)))
	var http5xx int
	for code, n := range load.codes {
		if code >= 500 {
			http5xx += n
		}
	}
	r.set("serve.http_429", float64(load.codes[http.StatusTooManyRequests]))
	r.set("serve.http_5xx", float64(http5xx))
	r.set("serve.http_404", float64(load.codes[http.StatusNotFound]))
	r.set("serve.sse_events", float64(driven.sseEvents))
	r.set("serve.sse_dropped", driven.sseDropped)
	lag := summarize(driven.lagMS)
	r.set("serve.ingest_lag_p50_ms", lag.Median)
	r.set("serve.ingest_lag_p99_ms", quantileOf(driven.lagMS, 0.99))
	r.set("window.ingested", float64(driven.summaryTail.Ingested))
	r.set("window.dropped", float64(driven.summaryTail.Dropped))
	r.set("window.quarantined", float64(driven.summaryTail.Quarantined))
	r.set("loadgen.late_p50_ms", ms(load.late.quantile(0.50)))
	r.set("loadgen.late_p99_ms", ms(load.late.quantile(0.99)))
	r.set("loadgen.sent", float64(load.sent))
	if late, p50 := r.values["loadgen.late_p99_ms"], r.values["serve.query_p50_ms"]; late > p50 {
		r.notef("FLAGGED: the generator's own lateness p99 %.3f ms exceeds query_p50_ms %.3f ms: serve.query_p50_ms is mostly the generator's timer", late, p50)
	}
	r.notef("%d of %d driven requests were already overdue when the previous reply on their connection arrived", load.backlogged, load.sent)
	if !opts.traced {
		return nil
	}
	return traceServeMixed(ctx, opts, r, in, svc, towers, coldSecs, capacity, load)
}

// traceServeMixed adds what only the traced pass measures: the handlers
// without sockets, the cold start as staged public calls, and the
// per-request span file.
func traceServeMixed(ctx context.Context, opts runOpts, r *report, in *mixedInput, svc *service, towers []int, coldSecs []float64, capacity float64, load *loadStats) error {
	tr := newTracer()
	tr.requests = load.spans

	// Handler cost: the feed has ended and no cycle runs, so nothing
	// competes with the handlers.
	urls := func(q request) []string {
		out := make([]string, len(towers))
		for i, id := range towers {
			q.tower = id
			out[i] = q.path()
		}
		return out
	}
	h := svc.srv.Handler()
	tower, err := probeHandler(h, urls(request{endpoint: epTower}), 5)
	if err != nil {
		return err
	}
	rescore, err := probeHandler(h, urls(request{endpoint: epRescore}), 3)
	if err != nil {
		return err
	}
	summary, err := probeHandler(h, []string{"/summary"}, 200)
	if err != nil {
		return err
	}
	listing, err := probeHandler(h, []string{"/towers"}, 50)
	if err != nil {
		return err
	}
	r.set("serve.handler_tower_us", tower.micros)
	r.set("serve.handler_tower_allocs", tower.allocs)
	r.set("serve.handler_rescore_us", rescore.micros)
	r.set("serve.handler_summary_us", summary.micros)
	r.set("serve.handler_towers_us", listing.micros)
	// Per request and client, what the socket, net/http and the client's
	// own decoding add on top of the handler.
	r.set("loadgen.http_overhead_us", float64(runtime.GOMAXPROCS(0))/capacity*1e6-tower.micros)

	// The cold start as staged calls: scan (serial, as the service does),
	// clean, AddBatch with guards on, then one modeling cycle.
	var staged *core.Result
	replayID := len(tr.spans)
	err = tr.stage("replay", func() error {
		cleaned, _, err := stagedIngest(ctx, tr, in.log.csv, in.log.records, scanSerial)
		if err != nil {
			return err
		}
		w, err := newServiceWindow(in.city)
		if err != nil {
			return err
		}
		if err := stagedAddBatch(tr, w, cleaned); err != nil {
			return err
		}
		staged, err = stagedRemodel(ctx, tr, w, svc.cfg)
		return err
	})
	if err != nil {
		return err
	}
	replaySecs := tr.spans[replayID].seconds()
	if err := probeSnapshots(tr, svc.win); err != nil {
		return err
	}
	layerMetrics(r, tr, coldSecs, []float64{replaySecs})
	r.op(nil) // the staged cold start ran to a model
	r.notef("staged cold start decided %s", digest(staged))
	path, err := tr.write("serve-mixed", opts.seed)
	if err != nil {
		return err
	}
	r.notef("spans written to %s (%d request spans)", path, len(tr.requests))
	return nil
}
