package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/window"
)

// remodel-wide: the service's own window→published-model cycle at 2400
// towers, where the O(N²) stages (condensed distances, NN-chain, DBI
// sweep, admission silhouette) dominate and NMF does not run.
const wideTowers = 2400

type wideInput struct {
	city *synth.City
	win  *window.Window
	cfg  serve.Config
	srv  *serve.Server
}

// buildWideInput generates the city and pre-loads 14 days + 1 slot into
// the window, pre-aggregated to one record per tower-slot and fed
// time-major in ingest-sized batches.
func buildWideInput(seed int64) (*wideInput, error) {
	cfg := cityConfig(wideTowers, windowDays+1, seed)
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		return nil, err
	}
	series, err := generateSeries(city)
	if err != nil {
		return nil, err
	}
	w, err := newServiceWindow(city)
	if err != nil {
		return nil, err
	}
	slotDur := time.Duration(cfg.SlotMinutes) * time.Minute
	batch := make([]trace.Record, 0, trace.DefaultBatchSize)
	for slot := 0; slot <= windowDays*cfg.SlotsPerDay(); slot++ {
		start := city.SlotStart(slot)
		for i, s := range series {
			if s.Bytes[slot] < 1 {
				continue
			}
			batch = append(batch, trace.Record{
				UserID:  i,
				Start:   start,
				End:     start.Add(slotDur / 2),
				TowerID: s.TowerID,
				Bytes:   int64(s.Bytes[slot]),
				Tech:    trace.TechLTE,
			})
			if len(batch) == cap(batch) {
				w.AddBatch(batch)
				batch = batch[:0]
			}
		}
	}
	w.AddBatch(batch)
	svcCfg := serviceConfig(city, w, nil)
	srv, err := serve.New(svcCfg)
	if err != nil {
		return nil, err
	}
	return &wideInput{city: city, win: w, cfg: svcCfg, srv: srv}, nil
}

// publishedModel reads the identity of the served model off /summary.
type publishedModel struct {
	Seq uint64 `json:"seq"`
	K   int    `json:"k"`
}

func readPublished(h http.Handler) (publishedModel, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/summary", nil))
	if rec.Code != http.StatusOK {
		return publishedModel{}, fmt.Errorf("/summary: status %d", rec.Code)
	}
	var body struct {
		Model *struct {
			Info publishedModel `json:"info"`
		} `json:"model"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return publishedModel{}, fmt.Errorf("/summary: %w", err)
	}
	if body.Model == nil {
		return publishedModel{}, errors.New("/summary: no model published")
	}
	return body.Model.Info, nil
}

func runRemodelWide(ctx context.Context, opts runOpts, r *report) error {
	var in *wideInput
	err := r.timeSetup(opts, func() (err error) {
		in = nil
		in, err = buildWideInput(opts.seed)
		return err
	})
	if err != nil {
		return err
	}
	defer in.srv.Close()
	handler := in.srv.Handler()

	// The window does not move between cycles, so one reference analysis
	// of its dataset gives the decisions every cycle must publish.
	ds, err := in.win.Dataset()
	if err != nil {
		return err
	}
	ref, err := core.AnalyzeContext(ctx, ds, in.city.POIs, in.cfg.Analyze)
	if err != nil {
		return err
	}

	var (
		cycleErr error
		lastSeq  uint64
	)
	endToEnd := func() error {
		cycleErr = in.srv.RemodelNow(ctx)
		var rej *serve.RejectionError
		if cycleErr != nil && !errors.As(cycleErr, &rej) {
			return cycleErr
		}
		return nil
	}
	check := func() error {
		if cycleErr != nil {
			return cycleErr // the admission gate refused the candidate
		}
		pub, err := readPublished(handler)
		if err != nil {
			return err
		}
		if pub.Seq != lastSeq+1 {
			return fmt.Errorf("published model #%d after #%d", pub.Seq, lastSeq)
		}
		lastSeq = pub.Seq
		if pub.K != ref.OptimalK {
			return fmt.Errorf("published k=%d, core.AnalyzeContext on the window's dataset says k=%d", pub.K, ref.OptimalK)
		}
		return nil
	}

	if !opts.traced {
		reps, err := r.timeReps(opts.seconds, endToEnd, check)
		if err != nil {
			return err
		}
		r.sample("to_model_s", reps.seconds)
		r.sample("alloc_mb", reps.allocMB)
		r.notef("to_model_s here is remodel_cycle_s: one RemodelNow over %d towers × %d days, k=%d", ds.NumTowers(), ds.Days, ref.OptimalK)
		return nil
	}

	want := digest(ref)
	tr := newTracer()
	var staged *core.Result
	untraced, replays, err := r.tracedReps(opts.seconds, tr, endToEnd, check, func() (err error) {
		staged, err = stagedRemodel(ctx, tr, in.win, in.cfg)
		return err
	}, func(rep int) error {
		r.op(sameDecisions("staged replay", digest(staged), want))
		if err := probeDistances(ctx, tr, staged.Dataset); err != nil {
			return err
		}
		if err := probeAnalyze(ctx, tr, staged.Dataset, in.city.POIs, in.cfg.Analyze); err != nil {
			return err
		}
		if rep > 0 {
			return nil
		}
		return probeSnapshots(tr, in.win)
	})
	if err != nil {
		return err
	}
	r.sample("serve.remodel_s", untraced)
	layerMetrics(r, tr, untraced, replays)
	remodelSelf(r)
	flagCoverage(r)
	path, err := tr.write("remodel-wide", opts.seed)
	if err != nil {
		return err
	}
	r.notef("spans written to %s; decisions %s", path, want)
	return nil
}

// remodelSelf reports serve.self_s: RemodelNow minus the analysis and the
// other layer calls the staged replay makes in its place.
func remodelSelf(r *report) {
	self := r.values["serve.remodel_s"] - r.values["core.analyze_s"]
	for _, name := range remodelStages {
		self -= r.values[name+"_s"]
	}
	r.set("serve.self_s", self)
}
