// Package serve is the always-on analysis service: it keeps a live
// sliding window of per-tower traffic (package window) fed from a record
// stream, periodically re-runs the full batch model (core.AnalyzeContext)
// over that window in the background, and answers HTTP/JSON queries about
// towers, clusters, anomalies and forecasts.
//
// The serving core is a double-buffered model behind an atomic.Pointer:
// the re-modeling loop builds the next generation off to the side,
// projects it into a read model — typed to what the handlers encode,
// nothing else (see readmodel.go) — and publishes it with a single pointer
// swap, so queries never block on modeling and always see a complete,
// self-consistent result. The ingest goroutines, the re-modeling loop and
// the HTTP handlers share no locks beyond the window's own mutex.
//
// Goroutines, all started by Start and joined by Close: the supervised
// ingest loop, which for the length of each attempt is two — one pulls and
// decodes Config.Source a fixed two batches ahead, one cleans and writes
// the window (see runIngest) — the supervised re-modeling loop (plus the
// row pools a cycle fans out over, joined before the cycle returns), the
// supervised snapshot loop when SnapshotInterval is set, and the health
// loop. The HTTP plane adds net/http's goroutine per request.
//
// Lifecycle: New validates the configuration, Start(ctx) launches those
// goroutines, Close (or cancelling ctx) drains them and, when a snapshot
// path is configured, persists the window so a restarted process resumes
// the identical sliding window.
//
// The service is built to survive without an operator:
//
//   - Snapshots are generational and crash-safe (see SnapshotStore): a
//     new checksummed generation every SnapshotInterval, written temp
//     file + fsync + rename and verified by read-back before retention
//     prunes older ones; restore falls back to the newest intact
//     generation past any torn or corrupt file.
//   - The ingest, re-modeling and snapshot loops run under a panicsafe
//     supervisor (see supervise.go) that restarts them after panics and
//     transient errors with bounded exponential backoff and a restart
//     budget.
//   - An explicit health state machine (healthy / degraded / stale, see
//     health.go) drives /readyz with load-balancer semantics — 503 +
//     Retry-After once the model is stale — while the query endpoints
//     keep serving the last-known-good model, labelled as such.
//   - The HTTP plane carries per-request timeouts, a concurrent-request
//     limiter and an SSE subscriber cap (see http.go).
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/linalg"
	"repro/internal/panicsafe"
	"repro/internal/pipeline"
	"repro/internal/poi"
	"repro/internal/trace"
	"repro/internal/window"
)

// Config assembles an analysis service.
type Config struct {
	// Window is the live sliding-window accumulator the service ingests
	// into and models from. Required.
	Window *window.Window
	// Source is the live record feed; nil runs the service without an
	// ingest goroutine (the window is fed out of band, e.g. by tests).
	// The feed is passed through the streaming cleaner before it reaches
	// the window, so duplicated and conflicting records are eliminated
	// exactly as in the batch pipeline.
	//
	// NextBatch is called from one goroutine at a time, but not from the
	// goroutine that cleans, and from a new one after every supervised
	// restart — including a restart that follows the source's own error
	// (see trace.Source). Close waits for a NextBatch in flight, as it
	// always has: a source that can block must return once the context
	// given to Start ends, or be unblocked by its owner before Close.
	Source trace.Source
	// POIs is the city's POI inventory, handed to the labelling stage of
	// every re-model.
	POIs []poi.POI
	// RemodelInterval is the pause between background modeling cycles
	// (default 1 minute). The first cycle runs immediately on Start.
	RemodelInterval time.Duration
	// Analyze configures the modeling stage (precision, workers, seed...).
	Analyze core.Options
	// Anomaly configures the per-tower anomaly detector run after each
	// re-model. The zero value keeps the detector's defaults.
	Anomaly anomaly.Options
	// CleanWindow bounds the streaming cleaner's dedup state (see
	// trace.NewCleanerWindow); zero keeps exact, unbounded state.
	CleanWindow int
	// SnapshotPath, when non-empty, is the base path of the generational
	// snapshot store: the window is persisted as <path>.1, <path>.2, ...
	// (higher is newer) every SnapshotInterval and once more on Close,
	// with SnapshotGenerations of retention. See SnapshotStore.
	SnapshotPath string
	// SnapshotInterval is the pause between periodic snapshots; zero
	// snapshots only on Close (the PR 8 behaviour).
	SnapshotInterval time.Duration
	// SnapshotGenerations is how many generations to retain (default 3).
	SnapshotGenerations int
	// StaleAfter is the model age at which the service reports itself
	// stale (readyz 503). Zero means 3×RemodelInterval.
	StaleAfter time.Duration
	// RemodelTimeout bounds one modeling cycle; a cycle that exceeds it
	// is cancelled and counted as a failure, so a wedged dependency
	// degrades the service instead of freezing the loop. Zero disables.
	RemodelTimeout time.Duration
	// RequestTimeout bounds one non-streaming HTTP request (default 15s,
	// negative disables). Requests that exceed it get 503.
	RequestTimeout time.Duration
	// Admission are the model admission-gate thresholds (see admit.go).
	// The zero value disables the gate: every candidate publishes, the
	// pre-gate behaviour.
	Admission AdmitConfig
	// ModelHistory is how many accepted generations to retain for
	// rollback (default 4, minimum 1 — the live model itself).
	ModelHistory int
	// AutoRollback rolls the service back one accepted generation after
	// this many consecutive gate rejections (then the streak counter
	// resets, so a persistent bad feed walks back one generation per
	// streak, not all the way in one step). Zero disables.
	AutoRollback int
	// APIToken, when non-empty, requires "Authorization: Bearer <token>"
	// on the query and operator endpoints. Probes (/healthz, /readyz)
	// and /metrics stay open.
	APIToken string
	// RateLimit is the per-client request rate (requests/second) on the
	// query endpoints; zero disables. RateBurst is the bucket depth
	// (default 2×RateLimit, minimum 1).
	RateLimit float64
	RateBurst int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Server is the running analysis service. Create with New.
type Server struct {
	cfg     Config
	cur     atomic.Pointer[model]
	met     metrics
	rows    []metric // the /metrics table over met, see metricTable
	broker  *broker
	done    chan struct{} // closed by Close; unblocks SSE writers
	store   *SnapshotStore
	limiter chan struct{} // concurrent-request semaphore, maxConcurrent slots
	rl      *rateLimiter  // per-client rate limiter; nil = unlimited
	restart restartPolicy // supervisor timing; tests shorten it before Start

	// admMu serialises the publication path: admission decision, history
	// mutation and pointer swap move together, so a rollback can never
	// interleave with an acceptance. pubSeq is the monotone generation
	// counter — it only advances on acceptance, so a gated-out candidate
	// leaves no gap and a rollback never reuses a number.
	admMu  sync.Mutex
	pubSeq atomic.Uint64
	hist   *modelHistory

	ingestLoop   loopStatus
	remodelLoop  loopStatus
	snapshotLoop loopStatus

	// testRemodelHook, when set by a test, runs at the top of every
	// modeling cycle — the seam chaos tests use to wedge or crash the
	// remodel loop on demand.
	testRemodelHook func()

	mu      sync.Mutex
	started bool
	closed  bool
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// New validates cfg and assembles a server. The service is inert until
// Start; Handler can be used immediately (it serves 503s until the first
// modeling cycle publishes).
func New(cfg Config) (*Server, error) {
	if cfg.Window == nil {
		return nil, errors.New("serve: Config.Window is required")
	}
	if cfg.RemodelInterval <= 0 {
		cfg.RemodelInterval = time.Minute
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 15 * time.Second
	}
	if cfg.ModelHistory == 0 {
		cfg.ModelHistory = 4
	}
	if cfg.ModelHistory < 1 {
		cfg.ModelHistory = 1
	}
	if cfg.RateLimit > 0 && cfg.RateBurst <= 0 {
		cfg.RateBurst = max(1, int(2*cfg.RateLimit))
	}
	s := &Server{
		cfg:     cfg,
		broker:  newBroker(),
		done:    make(chan struct{}),
		limiter: make(chan struct{}, maxConcurrent),
		restart: restartPolicy{budget: restartBudget, backoff: restartBackoff, maxBackoff: restartMaxBackoff},
		hist:    newModelHistory(cfg.ModelHistory),
	}
	s.met.requests = make([]atomic.Uint64, len(routes))
	s.rows = s.metricTable()
	if cfg.RateLimit > 0 {
		s.rl = newRateLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	s.ingestLoop.name = "ingest"
	s.remodelLoop.name = "remodel"
	s.snapshotLoop.name = "snapshot"
	if cfg.SnapshotPath != "" {
		s.store = NewSnapshotStore(cfg.SnapshotPath, cfg.SnapshotGenerations, nil, s.logf)
	}
	s.met.healthState.Store(int32(Stale)) // nothing published yet
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Start launches the supervised ingest, re-modeling, snapshot and health
// goroutines. They stop when ctx is cancelled or Close is called,
// whichever comes first. Start is idempotent after the first call.
func (s *Server) Start(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	ctx, s.cancel = context.WithCancel(ctx)
	if s.cfg.Source != nil {
		s.wg.Add(1)
		go s.supervise(ctx, &s.ingestLoop, s.runIngest, func(error) {
			s.met.ingestErrors.Add(1)
		})
	}
	s.wg.Add(1)
	go s.supervise(ctx, &s.remodelLoop, s.runRemodelLoop, func(error) {
		// An error surfacing here escaped RemodelNow's own accounting
		// (a panic in the loop body), so count it as a failed cycle too.
		s.met.modelFailures.Add(1)
		s.met.modelConsecFails.Add(1)
	})
	if s.store != nil && s.cfg.SnapshotInterval > 0 {
		s.wg.Add(1)
		go s.supervise(ctx, &s.snapshotLoop, s.runSnapshotLoop, nil)
	}
	s.wg.Add(1)
	go s.healthLoop(ctx)
}

// Close stops the background goroutines, waits for them to drain, wakes
// any blocked SSE writers, and persists a final snapshot generation when
// SnapshotPath is configured. The store's own guards make the final save
// harmless in every failure posture: an empty window writes nothing, and
// a window older than the newest durable generation (a restart that
// never caught up) never displaces it. Safe to call more than once; only
// the first call does the work.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	cancel := s.cancel
	s.mu.Unlock()

	if cancel != nil {
		cancel()
	}
	s.wg.Wait()
	close(s.done)
	if s.store != nil {
		if err := s.saveSnapshot(); err != nil {
			return fmt.Errorf("serve: final snapshot: %w", err)
		}
	}
	return nil
}

// saveSnapshot persists one generation through the store, folding the
// intentional-skip sentinels into the metrics instead of errors.
func (s *Server) saveSnapshot() error {
	path, err := s.store.Save(s.cfg.Window)
	switch {
	case err == nil:
		s.met.snapshots.Add(1)
		s.logf("serve: window snapshot written to %s", path)
		return nil
	case errors.Is(err, ErrSnapshotEmpty) || errors.Is(err, ErrSnapshotStale):
		s.met.snapshotSkips.Add(1)
		s.logf("%v", err)
		return nil
	default:
		s.met.snapshotFailures.Add(1)
		return err
	}
}

// runIngest drains the configured source into the window; it is one
// supervised attempt, and two goroutines: a producer (trace.ReadAhead)
// pulls — decodes — the source trace.ReadAheadDepth batches ahead, and this
// goroutine takes those batches, in source order, through the streaming
// cleaner into Window.AddBatch. The producer is joined before runIngest
// returns, however it returns, so nothing outlives the attempt, and a
// shutdown is as prompt as the source's own NextBatch — as it was when
// this goroutine made that call itself. /metrics says which of the two is
// waiting for the other (repro_ingest_wait_seconds_total).
//
// Feed exhaustion (io.EOF) is a clean return — the service keeps serving
// the window it has. Errors and panics (a broken decoder, a faulty disk
// past the retry budget; a panic inside the source arrives here as the
// *panicsafe.Error the producer recovered) surface to the supervisor,
// which restarts the loop with backoff: a restart re-reads from wherever
// the source is, with a fresh dedup window.
//
// What a restart loses depends on the side that failed. A failing source
// loses nothing it had handed out: the producer stops at the error, and
// the error reaches this goroutine behind every record pulled before it.
// A crash on this side — a panic in the cleaner or the window — forfeits
// the batch in hand plus at most the trace.ReadAheadDepth batches the
// producer had pulled: they are dropped with the attempt, not re-read.
//
// "Re-reads from wherever the source is" means Config.Source is pulled
// again after it returned a non-EOF error, which trace.Source tells
// consumers not to count on; see there for what a source given to this
// service must do when that happens.
func (s *Server) runIngest(ctx context.Context) error {
	ahead := trace.ReadAhead(trace.WithContext(ctx, s.cfg.Source), &s.met.ingestWaits)
	defer ahead.Close() // joins the producer, on a panic below too
	cleaned := trace.CleanSourceWindow(ahead, s.cfg.CleanWindow)
	err := trace.ForEachBatch(cleaned, func(batch []trace.Record) error {
		s.cfg.Window.AddBatch(batch)
		s.met.ingestRecords.Add(uint64(len(batch)))
		s.met.ingestBatches.Add(1)
		return nil
	})
	switch {
	case err == nil:
		s.logf("serve: ingest feed exhausted; serving last window")
		return nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return err // shutdown; the supervisor sees ctx.Err() and stops
	default:
		s.logf("serve: ingest stopped: %v", err)
		return err
	}
}

// runRemodelLoop runs one modeling cycle immediately, then one per
// RemodelInterval tick; it is one supervised attempt, so a panic in the
// cycle restarts the loop (and the immediate first cycle re-runs).
func (s *Server) runRemodelLoop(ctx context.Context) error {
	s.remodelOnce(ctx)
	ticker := time.NewTicker(s.cfg.RemodelInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
			s.remodelOnce(ctx)
		}
	}
}

// runSnapshotLoop persists one generation per SnapshotInterval tick.
// Failed saves are counted and logged; the loop itself only dies on a
// panic (which the supervisor restarts).
func (s *Server) runSnapshotLoop(ctx context.Context) error {
	ticker := time.NewTicker(s.cfg.SnapshotInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
			if err := s.saveSnapshot(); err != nil {
				s.logf("serve: periodic snapshot failed: %v", err)
			}
		}
	}
}

// remodelOnce runs one modeling cycle, bounded by RemodelTimeout when
// configured so a wedged dependency fails the cycle instead of freezing
// the loop.
func (s *Server) remodelOnce(ctx context.Context) {
	cctx := ctx
	if s.cfg.RemodelTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, s.cfg.RemodelTimeout)
		defer cancel()
	}
	if err := s.RemodelNow(cctx); err != nil {
		var rej *RejectionError
		switch {
		case errors.Is(err, window.ErrWarmingUp):
			// Expected while the feed fills the first week.
		case errors.As(err, &rej):
			// Not a failure: the cycle completed and the gate held the
			// line. RemodelNow already logged the full verdict.
		case ctx.Err() != nil:
			// Shutdown, not a cycle failure.
		case errors.Is(err, context.DeadlineExceeded):
			s.logf("serve: modeling cycle timed out after %v", s.cfg.RemodelTimeout)
		default:
			s.logf("serve: modeling cycle failed: %v", err)
		}
	}
}

// RemodelNow runs one full modeling cycle synchronously — snapshot the
// window into a dataset, run the analysis pipeline, the anomaly sweep
// and the forecasting stage — routes the candidate through the
// admission gate, and on acceptance publishes its read model with an
// atomic pointer swap. Queries are never blocked while this runs. It returns
// window.ErrWarmingUp while the window covers less than one whole week,
// and a *RejectionError when the gate refuses the candidate (the live
// model is untouched; AutoRollback may additionally republish an older
// generation).
func (s *Server) RemodelNow(ctx context.Context) error {
	began := time.Now()
	if s.testRemodelHook != nil {
		s.testRemodelHook()
	}
	c, err := s.runStages(ctx)
	if err != nil {
		return err
	}
	return s.publish(c, began)
}

// runStages runs the four stages of a modeling cycle and returns their
// output as a candidate.
func (s *Server) runStages(ctx context.Context) (*candidate, error) {
	c := &candidate{}
	for i, run := range [len(stageNames)]func() error{
		func() (err error) { c.ds, err = s.cfg.Window.Dataset(); return },
		func() (err error) { c.res, err = core.AnalyzeContext(ctx, c.ds, s.cfg.POIs, s.cfg.Analyze); return },
		func() (err error) {
			c.reports, err = anomaly.DetectAllContext(ctx, c.ds.Raw, c.ds.Days, s.cfg.Anomaly, s.cfg.Analyze.Workers)
			return
		},
		func() (err error) { c.forecasts, err = s.buildForecasts(ctx, c.ds); return },
	} {
		if err := s.stage(i, run); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// publish routes a candidate through the admission gate and, on acceptance,
// swaps its read model in (with the raw matrix the live re-score reads) and
// pushes the read model onto the history. began is when the cycle started.
func (s *Server) publish(c *candidate, began time.Time) error {
	stats := admissionStats(c.ds, c.res, c.forecasts, s.cfg.Analyze.Workers)

	// The publication path: gate verdict, history mutation and pointer
	// swap move under admMu so a concurrent rollback cannot interleave.
	s.admMu.Lock()
	var prevStats *AdmissionStats
	if head := s.hist.head(); head != nil {
		ps := head.stats
		prevStats = &ps
	}
	if s.cfg.Admission.enabled() {
		if reasons, details := admit(s.cfg.Admission, prevStats, stats); len(reasons) > 0 {
			s.noteRejectionLocked(reasons)
			rolledTo := s.maybeAutoRollbackLocked()
			s.admMu.Unlock()
			s.met.lastModelNanos.Store(int64(time.Since(began)))
			err := &RejectionError{Reasons: reasons, Details: details}
			s.logf("%v", err)
			if rolledTo != nil {
				s.logf("serve: auto-rollback after %d consecutive rejections: serving model #%d again", s.cfg.AutoRollback, rolledTo.rm.Seq)
			}
			return err
		}
	}
	next := &model{readModel: project(c, s.pubSeq.Add(1), time.Now()), raw: c.ds.Raw}
	prev := s.cur.Swap(next)
	s.hist.push(&generation{rm: next.readModel, stats: stats, acceptedAt: next.ModeledAt})
	s.met.modelCycles.Add(1)
	s.met.modelConsecFails.Store(0)
	s.met.modelConsecRejects.Store(0)
	s.admMu.Unlock()
	s.met.lastModelNanos.Store(int64(time.Since(began)))
	s.publishAnomalies(prev, next)
	s.logf("serve: model #%d published: %d towers, %d days, k=%d (%v)",
		next.Seq, next.Towers, next.Days, next.K, time.Since(began).Round(time.Millisecond))
	return nil
}

// stageNames are the stages of a modeling cycle in the order RemodelNow runs
// them, named after BENCHMARK.json's per_layer prefixes so the live stage
// gauge and the benchmark report speak one vocabulary.
var stageNames = [...]string{"window.dataset", "core.analyze", "anomaly.detect_all", "forecast.backtest_fit"}

// stage runs stage i of a modeling cycle: it records the stage's wall time
// and does the cycle's failure accounting once — a warming-up window is a
// skip and comes back as window.ErrWarmingUp itself, anything else is a
// failed cycle and comes back wrapped in the stage's name.
func (s *Server) stage(i int, run func() error) error {
	began := time.Now()
	err := run()
	s.met.stageNanos[i].Store(int64(time.Since(began)))
	switch {
	case err == nil:
		return nil
	case errors.Is(err, window.ErrWarmingUp):
		s.met.modelSkips.Add(1)
		return err
	}
	s.met.modelFailures.Add(1)
	s.met.modelConsecFails.Add(1)
	return fmt.Errorf("serve: %s: %w", stageNames[i], err)
}

// noteRejectionLocked ticks the rejection counters (total, per reason,
// and the consecutive streak). Callers hold admMu.
func (s *Server) noteRejectionLocked(reasons []RejectReason) {
	s.met.modelRejected.Add(1)
	s.met.modelConsecRejects.Add(1)
	for _, r := range reasons {
		if i := slices.Index(rejectReasons[:], r); i >= 0 {
			s.met.rejected[i].Add(1)
		}
	}
}

// maybeAutoRollbackLocked rolls back one accepted generation when the
// consecutive-rejection streak has reached Config.AutoRollback,
// returning the generation now serving (nil when no rollback happened).
// The streak resets afterwards, so a feed that stays bad walks back one
// generation per streak rather than unwinding the whole history at
// once. Callers hold admMu.
func (s *Server) maybeAutoRollbackLocked() *generation {
	if s.cfg.AutoRollback <= 0 || s.met.modelConsecRejects.Load() < uint64(s.cfg.AutoRollback) {
		return nil
	}
	g, err := s.hist.rollback(0)
	if err != nil {
		return nil // nothing older to fall back to; keep serving the head
	}
	s.cur.Store(&model{readModel: g.rm})
	s.met.rollbackAuto.Add(1)
	s.met.modelConsecRejects.Store(0)
	return g
}

// buildForecasts backtests a spectral forecaster per tower on the
// window's final week and predicts the next day. Rows whose fit fails
// (degenerate traffic) carry a zero towerForecast rather than failing
// the cycle.
//
// The rows fan out over panicsafe.ForEach on up to Analyze.Workers
// goroutines. Each worker refits its own two models — the backtest's and
// the full window's — row after row, so a cycle allocates per-row only what
// it publishes, and every row is written by index from that row's traffic
// alone, so the result is identical for any worker count.
func (s *Server) buildForecasts(ctx context.Context, ds *pipeline.Dataset) ([]towerForecast, error) {
	out := make([]towerForecast, ds.NumTowers())
	if ds.Days < 14 {
		return out, nil
	}
	spd := ds.SlotsPerDay()
	trainDays := ds.Days - 7
	workers := min(linalg.ResolveWorkers(s.cfg.Analyze.Workers), len(ds.Raw))
	type models struct{ backtest, full forecast.SpectralModel }
	perWorker := make([]*models, max(workers, 1))
	err := panicsafe.ForEach(ctx, len(ds.Raw), workers, func(w, i int) error {
		if perWorker[w] == nil {
			perWorker[w] = &models{
				backtest: forecast.SpectralModel{Components: forecast.HarmonicsAndSidebands},
				full:     forecast.SpectralModel{Components: forecast.HarmonicsAndSidebands},
			}
		}
		m, row := perWorker[w], ds.Raw[i]
		metrics, err := forecast.Backtest(&m.backtest, row, ds.Days, trainDays, spd)
		if err != nil {
			return nil
		}
		if err := m.full.Fit(row, ds.Days, spd); err != nil {
			return nil
		}
		nextDay, err := m.full.Predict(spd)
		if err != nil {
			return nil
		}
		out[i] = newTowerForecast(metrics, nextDay)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// publishAnomalies pushes the anomalies of the newly covered window span
// to the SSE stream: slots at or after the previous model's window end.
// The first model publishes nothing — its whole window is history, not
// news.
func (s *Server) publishAnomalies(prev, next *model) {
	if prev == nil {
		return
	}
	for row, anomalies := range next.anomalies {
		for _, a := range anomalies {
			if a.Time.Before(prev.WindowTo) {
				continue
			}
			s.broker.publish(anomalyEvent{Tower: next.towers[row].Tower, anomalyJSON: a, ModelSeq: next.Seq})
		}
	}
}

// Model returns the currently published model, or nil before the first
// cycle completes. The returned value is immutable.
func (s *Server) model() *model { return s.cur.Load() }
