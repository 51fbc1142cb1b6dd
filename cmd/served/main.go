// Command served runs the always-on analysis service: a synthetic city's
// CDR log is replayed as a live feed (rate-paced by the records' own
// timestamps via -replay-speed) into a sliding traffic window, a
// background loop re-runs the full modeling pipeline every
// -remodel-interval, and an HTTP/JSON API serves the current model —
// cluster and functional-region labels, live window statistics, anomaly
// reports, forecasts and a server-sent-events anomaly stream — without
// ever blocking a query on modeling.
//
// Endpoints (see internal/serve): /healthz (liveness), /readyz
// (readiness with load-balancer semantics: 503 + Retry-After once the
// model is stale), /summary, /towers, /towers/{id}, /stream, /metrics
// (JSON, or Prometheus text with ?format=prom), /models (the accepted
// generation history) and POST /models/rollback (operator rollback).
//
// Every candidate model passes an admission gate before publication
// (-min-coverage, -min-completeness, -max-validity-drift,
// -max-backtest-regress); rejected candidates leave the live model
// untouched, and -auto-rollback can republish an older generation after
// a rejection streak. The window itself defends its feed: records
// timestamped further than -max-future-skew ahead of the data-driven
// clock are dropped, and towers whose traffic jumps beyond -quarantine-z
// robust z-scores are quarantined out of modeling until they stabilize.
// -api-token and -rate-limit harden the query API.
//
// With -snapshot the window is persisted as checksummed generations
// (<path>.1, <path>.2, ... — higher is newer, -snapshot-generations of
// retention) every -snapshot-interval and once more on shutdown, and the
// newest intact generation is restored on the next start, so a restarted
// — or killed — service resumes a recent sliding window instead of
// warming up from nothing.
//
// The service supervises its own background loops (panics and transient
// feed errors restart them with bounded backoff) and keeps serving the
// last-known-good model in degraded conditions; see internal/serve.
//
// SIGINT/SIGTERM shut the service down gracefully: the HTTP listener
// drains, the ingest and modeling goroutines stop, the final snapshot
// generation (if configured) is written, and the process exits 0.
//
// Examples:
//
//	served -addr :8080 -towers 200 -days 28 -replay-speed 0
//	served -snapshot /var/tmp/window.snap -snapshot-interval 30s
//	served -precision float32 -workers 4 -window-days 14
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/window"
)

// Exit codes, aligned with cmd/analyze's scheme so supervising scripts
// can tell failure classes apart. 2 is the conventional "bad usage" code
// (what flag.ExitOnError itself uses for unknown flags).
const (
	exitFailure = 1 // runtime failure (modeling, HTTP listener)
	exitUsage   = 2 // invalid flag values
	exitIO      = 5 // snapshot directory or restore I/O failure
)

// usageErrorf reports an invalid flag value the way the flag package
// does — message plus usage to stderr — and exits with exitUsage.
func usageErrorf(format string, args ...any) {
	fmt.Fprintf(flag.CommandLine.Output(), format+"\n", args...)
	flag.Usage()
	os.Exit(exitUsage)
}

func main() {
	// Every flag binds straight into the struct that consumes it.
	city := synth.SmallConfig()
	cfg := serve.Config{Logf: log.Printf}
	var guards window.Guards
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		windowDays  = flag.Int("window-days", 14, "sliding-window length in days (positive multiple of 7)")
		precision   = flag.String("precision", "float64", "modeling precision: float64 or float32")
		replaySpeed = flag.Float64("replay-speed", 0, "trace-time over wall-time replay factor (3600 = an hour per second; 0 = as fast as possible)")
	)
	flag.DurationVar(&cfg.RemodelInterval, "remodel-interval", time.Minute, "pause between background modeling cycles (> 0)")
	flag.DurationVar(&cfg.StaleAfter, "stale-after", 0, "model age at which /readyz turns 503 (0 = 3x the remodel interval)")
	flag.DurationVar(&cfg.RequestTimeout, "request-timeout", 0, "per-request timeout on the query endpoints (0 = the service default, negative disables)")
	flag.IntVar(&cfg.Analyze.Workers, "workers", 0, "modeling worker goroutines (0 = GOMAXPROCS)")

	flag.StringVar(&cfg.SnapshotPath, "snapshot", "", "base path of the generational window snapshot store: newest intact generation restored on start, a new generation written every -snapshot-interval and on shutdown")
	flag.DurationVar(&cfg.SnapshotInterval, "snapshot-interval", time.Minute, "pause between periodic snapshot generations (0 = only on shutdown)")
	flag.IntVar(&cfg.SnapshotGenerations, "snapshot-generations", 3, "snapshot generations to retain (> 0)")

	flag.Float64Var(&cfg.Admission.MinCoverage, "min-coverage", 0.5, "admission gate: minimum candidate/accepted tower-coverage ratio, in (0, 1] (0 disables)")
	flag.Float64Var(&cfg.Admission.MinCompleteness, "min-completeness", 0, "admission gate: minimum median per-tower fraction of non-empty slots, in (0, 1] (0 disables)")
	flag.Float64Var(&cfg.Admission.MaxValidityDrift, "max-validity-drift", 0.5, "admission gate: maximum clustering-validity degradation vs the last accepted model (0 disables)")
	flag.Float64Var(&cfg.Admission.MaxBacktestRegress, "max-backtest-regress", 0.5, "admission gate: maximum relative backtest-NRMSE regression vs the last accepted model (0 disables)")
	flag.IntVar(&cfg.ModelHistory, "model-history", 4, "accepted model generations retained for rollback (> 0)")
	flag.IntVar(&cfg.AutoRollback, "auto-rollback", 0, "roll back one generation after this many consecutive gate rejections (0 disables)")
	flag.Float64Var(&guards.Quarantine.ZThreshold, "quarantine-z", 8, "robust z-score beyond which a tower's slot counts as an outlier toward quarantine (0 disables)")
	flag.DurationVar(&guards.MaxFutureSkew, "max-future-skew", 24*time.Hour, "drop records timestamped further than this ahead of the window's data-driven clock (0 disables)")
	flag.StringVar(&cfg.APIToken, "api-token", "", "when set, require 'Authorization: Bearer <token>' on the query and operator endpoints")
	flag.Float64Var(&cfg.RateLimit, "rate-limit", 0, "per-client requests/second on the query endpoints (0 disables)")
	flag.IntVar(&cfg.RateBurst, "rate-burst", 0, "per-client rate-limit burst capacity (0 = 2x -rate-limit)")

	flag.IntVar(&city.Towers, "towers", 200, "towers in the synthetic city feeding the service (> 0)")
	flag.IntVar(&city.Days, "days", 28, "days of synthetic traffic to replay (> 0)")
	flag.Int64Var(&city.Seed, "seed", 1, "synthetic city seed")
	flag.Parse()

	// Validate before anything runs: a misconfigured service must refuse
	// to start with a usage error, not limp along with nonsense values.
	adm := cfg.Admission
	switch {
	case *windowDays <= 0 || *windowDays%7 != 0:
		usageErrorf("-window-days %d: must be a positive multiple of 7", *windowDays)
	case cfg.RemodelInterval <= 0:
		usageErrorf("-remodel-interval %v: must be positive", cfg.RemodelInterval)
	case cfg.StaleAfter < 0:
		usageErrorf("-stale-after %v: must not be negative", cfg.StaleAfter)
	case cfg.SnapshotInterval < 0:
		usageErrorf("-snapshot-interval %v: must not be negative", cfg.SnapshotInterval)
	case cfg.SnapshotGenerations <= 0:
		usageErrorf("-snapshot-generations %d: must be positive", cfg.SnapshotGenerations)
	case city.Towers <= 0:
		usageErrorf("-towers %d: must be positive", city.Towers)
	case city.Days <= 0:
		usageErrorf("-days %d: must be positive", city.Days)
	case *replaySpeed < 0:
		usageErrorf("-replay-speed %g: must not be negative (0 disables pacing)", *replaySpeed)
	case adm.MinCoverage < 0 || adm.MinCoverage > 1:
		usageErrorf("-min-coverage %g: must be in [0, 1]", adm.MinCoverage)
	case adm.MinCompleteness < 0 || adm.MinCompleteness > 1:
		usageErrorf("-min-completeness %g: must be in [0, 1]", adm.MinCompleteness)
	case adm.MaxValidityDrift < 0:
		usageErrorf("-max-validity-drift %g: must not be negative", adm.MaxValidityDrift)
	case adm.MaxBacktestRegress < 0:
		usageErrorf("-max-backtest-regress %g: must not be negative", adm.MaxBacktestRegress)
	case cfg.ModelHistory <= 0:
		usageErrorf("-model-history %d: must be positive", cfg.ModelHistory)
	case cfg.AutoRollback < 0:
		usageErrorf("-auto-rollback %d: must not be negative (0 disables)", cfg.AutoRollback)
	case guards.Quarantine.ZThreshold < 0:
		usageErrorf("-quarantine-z %g: must not be negative (0 disables)", guards.Quarantine.ZThreshold)
	case guards.MaxFutureSkew < 0:
		usageErrorf("-max-future-skew %v: must not be negative (0 disables)", guards.MaxFutureSkew)
	case cfg.RateLimit < 0:
		usageErrorf("-rate-limit %g: must not be negative (0 disables)", cfg.RateLimit)
	case cfg.RateBurst < 0:
		usageErrorf("-rate-burst %d: must not be negative", cfg.RateBurst)
	}
	cfg.Analyze.Seed = city.Seed
	switch *precision {
	case "float64":
		cfg.Analyze.Precision = core.Float64
	case "float32":
		cfg.Analyze.Precision = core.Float32
	default:
		usageErrorf("-precision %q: want float64 or float32", *precision)
	}
	city.Users = 50 * city.Towers

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, *windowDays, *replaySpeed, city, guards, cfg); err != nil {
		log.Print(err)
		var ioErr *snapshotIOError
		if errors.As(err, &ioErr) {
			os.Exit(exitIO)
		}
		os.Exit(exitFailure)
	}
}

// snapshotIOError marks failures of the snapshot store's filesystem, so
// main can exit with the I/O code instead of the generic one.
type snapshotIOError struct{ err error }

func (e *snapshotIOError) Error() string { return e.err.Error() }
func (e *snapshotIOError) Unwrap() error { return e.err }

// run serves cfg — missing only the window, feed and POIs built here from the
// synthetic city — on addr until ctx is cancelled.
func run(ctx context.Context, addr string, windowDays int, replaySpeed float64, cityCfg synth.Config, guards window.Guards, cfg serve.Config) error {
	city, err := synth.GenerateCity(cityCfg)
	if err != nil {
		return fmt.Errorf("generating city: %w", err)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		return fmt.Errorf("generating traffic: %w", err)
	}

	var w *window.Window
	if cfg.SnapshotPath != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.SnapshotPath), 0o755); err != nil {
			return &snapshotIOError{fmt.Errorf("snapshot directory: %w", err)}
		}
		store := serve.NewSnapshotStore(cfg.SnapshotPath, cfg.SnapshotGenerations, nil, log.Printf)
		restored, from, err := store.Restore()
		if err != nil {
			return &snapshotIOError{fmt.Errorf("restoring snapshot: %w", err)}
		}
		if restored != nil {
			w = restored
			log.Printf("restored window snapshot %s: %d towers, %d complete days",
				from, w.Summary().Towers, w.Summary().CompleteDays)
		}
	}
	if w == nil {
		if w, err = window.New(window.Options{
			Start:       cityCfg.Start,
			SlotMinutes: cityCfg.SlotMinutes,
			Days:        windowDays,
		}); err != nil {
			return err
		}
	}
	w.SetLocations(city.TowerInfos())
	// Guards are construction-time configuration, not snapshot state: they
	// must be (re-)applied whether the window was restored or fresh.
	w.SetGuards(guards)

	stream := city.LogSource(series, synth.LogOptions{TimeMajor: true})
	defer stream.Close()
	cfg.Window, cfg.POIs = w, city.POIs
	cfg.Source = trace.NewReplaySource(ctx, stream, replaySpeed)
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	srv.Start(ctx)

	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.ListenAndServe() }()
	log.Printf("serving on %s: %d towers, %d-day window, re-model every %v, replay speed %gx",
		addr, cityCfg.Towers, windowDays, cfg.RemodelInterval, replaySpeed)

	select {
	case err := <-httpErr:
		srv.Close()
		return fmt.Errorf("http server: %w", err)
	case <-ctx.Done():
	}

	log.Printf("shutting down")
	// Stop the service first: this drains the ingest and modeling
	// goroutines, wakes any blocked SSE streams and writes the final
	// snapshot generation, so the HTTP drain below finishes promptly.
	closeErr := srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
	}
	if closeErr != nil {
		return &snapshotIOError{closeErr}
	}
	log.Printf("bye")
	return nil
}
