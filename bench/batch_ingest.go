package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/label"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/trace"
)

// batch-ingest: a 300-tower, 14-day city rendered tower-major to CSV
// (~1.6 M records, ~190 MB) and analysed with NMF off, so scanning,
// cleaning and vectorizing are nearly all of the wall time.
const (
	ingestTowers = 300
	ingestDays   = 14
	// labelAccuracyFloor is the lowest land-use label accuracy against the
	// city's ground truth seen at baseline over seeds 1–24, less a margin.
	labelAccuracyFloor = 0.80
)

type ingestInput struct {
	city   *synth.City
	series []synth.TowerSeries
	log    *cdr
	vopts  pipeline.VectorizerOptions
}

func buildIngestInput(seed int64) (*ingestInput, error) {
	cfg := cityConfig(ingestTowers, ingestDays, seed)
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		return nil, err
	}
	series, err := generateSeries(city)
	if err != nil {
		return nil, err
	}
	log, err := renderCDR(city, series, synth.LogOptions{}, time.Time{})
	if err != nil {
		return nil, err
	}
	return &ingestInput{
		city:   city,
		series: series,
		log:    log,
		vopts:  pipeline.VectorizerOptions{Start: cfg.Start, Days: cfg.Days, SlotMinutes: cfg.SlotMinutes},
	}, nil
}

// check is the batch-ingest correctness check: the cleaner removed exactly
// the injected records, the dataset rebuilt from the log equals the ground
// truth per tower-slot, and the land-use labels are no worse than the floor.
func (in *ingestInput) check(res *core.Result, stats trace.CleanStats) error {
	if stats.Input != in.log.records || stats.Invalid != 0 ||
		stats.Duplicates != in.log.duplicates || stats.Conflicts != in.log.conflicts {
		return fmt.Errorf("cleaner stats %+v, want %d records with %d duplicates and %d conflicts",
			stats, in.log.records, in.log.duplicates, in.log.conflicts)
	}
	ds := res.Dataset
	if ds.NumTowers() != len(in.series) {
		return fmt.Errorf("dataset has %d towers, want %d", ds.NumTowers(), len(in.series))
	}
	for _, s := range in.series {
		row := ds.RowByTowerID(s.TowerID)
		if row < 0 {
			return fmt.Errorf("tower %d missing from the dataset", s.TowerID)
		}
		for slot, got := range ds.Raw[row] {
			// The generator emits whole bytes: the clean part of the log
			// sums to the truncated series value.
			if want := float64(int64(s.Bytes[slot])); got != want {
				return fmt.Errorf("tower %d slot %d: %g bytes, want %g", s.TowerID, slot, got, want)
			}
		}
	}
	truth, err := in.city.GroundTruthRegions(ds)
	if err != nil {
		return err
	}
	acc, _, err := label.Accuracy(res.TowerRegions, truth)
	if err != nil {
		return err
	}
	if acc < labelAccuracyFloor {
		return fmt.Errorf("label accuracy %.3f below the baseline floor %.2f", acc, labelAccuracyFloor)
	}
	return nil
}

func runBatchIngest(ctx context.Context, opts runOpts, r *report) error {
	var in *ingestInput
	err := r.timeSetup(opts, func() (err error) {
		in = nil
		in, err = buildIngestInput(opts.seed)
		return err
	})
	if err != nil {
		return err
	}
	towers := in.city.TowerInfos()
	analyzeOpts := core.Options{Seed: opts.seed} // NMFRank 0: modeling stays under a tenth of the run

	var (
		res   *core.Result
		stats trace.CleanStats
	)
	endToEnd := func() error {
		src, err := trace.NewParallelCSVSource(bytes.NewReader(in.log.csv), 0)
		if err != nil {
			return err
		}
		defer src.Close()
		res, stats, err = core.AnalyzeSourceContext(ctx, src, towers, in.city.POIs, in.vopts, analyzeOpts)
		return err
	}
	check := func() error { return in.check(res, stats) }

	if !opts.traced {
		reps, err := r.timeReps(opts.seconds, endToEnd, check)
		if err != nil {
			return err
		}
		r.sample("to_model_s", reps.seconds)
		r.sample("alloc_mb", reps.allocMB)
		r.notef("to_model_s here is cdr_to_model_s: %d CSV bytes (%d records) → *core.Result", len(in.log.csv), in.log.records)
		return nil
	}

	// Traced pass: end-to-end repetitions for the reference time, each
	// followed by the same work as staged public calls.
	tr := newTracer()
	var (
		staged      *core.Result
		stagedStats trace.CleanStats
	)
	untraced, replays, err := r.tracedReps(opts.seconds, tr, endToEnd, check, func() error {
		cleaned, stats, err := stagedIngest(ctx, tr, in.log.csv, in.log.records, scanParallel)
		if err != nil {
			return err
		}
		stagedStats = stats
		ds, err := stagedVectorize(ctx, tr, cleaned, towers, in.vopts)
		if err != nil {
			return err
		}
		staged, err = stagedAnalyze(ctx, tr, ds, in.city.POIs, analyzeOpts)
		return err
	}, func(int) error {
		r.op(in.check(staged, stagedStats))
		r.op(sameDecisions("staged replay", digest(staged), digest(res)))
		if err := probeDistances(ctx, tr, staged.Dataset); err != nil {
			return err
		}
		return probeAnalyze(ctx, tr, staged.Dataset, in.city.POIs, analyzeOpts)
	})
	if err != nil {
		return err
	}
	layerMetrics(r, tr, untraced, replays)
	// No coverage band here: end to end the scanner, the cleaner and the
	// vectorizer run concurrently, so their staged times add up to more
	// than the wall time. The slowest of them sets it.
	ingest := []float64{r.values["trace.scan_s"], r.values["trace.clean_s"], r.values["pipeline.vectorize_s"]}
	r.notef("ingest stages overlap end to end: the slowest one alone is %.2f of the end-to-end median", slices.Max(ingest)/median(untraced))
	path, err := tr.write("batch-ingest", opts.seed)
	if err != nil {
		return err
	}
	r.notef("spans written to %s", path)
	return nil
}
