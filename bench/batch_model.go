package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/freqdomain"
	"repro/internal/pipeline"
	"repro/internal/synth"
)

// batch-model: a 400-tower, 14-day dataset built straight from the
// ground-truth series (no CDR), modelled with cmd/analyze's defaults —
// DBI sweep 2..10, NMF at the selected rank, float64 — and decomposed
// into the four primary components for every tower.
const (
	modelTowers = 400
	modelDays   = 14
)

type modelInput struct {
	city *synth.City
	ds   *pipeline.Dataset
}

func buildModelInput(seed int64) (*modelInput, error) {
	cfg := synth.DefaultConfig()
	cfg.Towers, cfg.Days, cfg.Seed = modelTowers, modelDays, seed
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		return nil, err
	}
	ds, err := city.BuildDataset()
	if err != nil {
		return nil, err
	}
	return &modelInput{city: city, ds: ds}, nil
}

// checkDecompositions verifies that every tower is a convex combination
// of the primaries: non-negative weights summing to one.
func checkDecompositions(decs []*freqdomain.Decomposition, towers int) error {
	if len(decs) != towers {
		return fmt.Errorf("%d decompositions for %d towers", len(decs), towers)
	}
	for i, d := range decs {
		sum := 0.0
		for _, c := range d.Coefficients {
			if c < 0 {
				return fmt.Errorf("tower row %d: negative weight %g", i, c)
			}
			sum += c
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("tower row %d: weights sum to %g", i, sum)
		}
	}
	return nil
}

func runBatchModel(ctx context.Context, opts runOpts, r *report) error {
	var in *modelInput
	err := r.timeSetup(opts, func() (err error) {
		in = nil
		in, err = buildModelInput(opts.seed)
		return err
	})
	if err != nil {
		return err
	}
	analyzeOpts := core.Options{NMFRank: core.NMFRankAuto, Seed: opts.seed}

	var (
		res  *core.Result
		decs []*freqdomain.Decomposition
		want string // decisions of the first repetition
	)
	endToEnd := func() (err error) {
		res, err = core.AnalyzeContext(ctx, in.ds, in.city.POIs, analyzeOpts)
		if err != nil {
			return err
		}
		decs, err = decomposeAll(res)
		return err
	}
	check := func() error {
		if want == "" {
			want = digest(res)
		}
		if err := sameDecisions("repetition", digest(res), want); err != nil {
			return err
		}
		return checkDecompositions(decs, in.ds.NumTowers())
	}

	if !opts.traced {
		reps, err := r.timeReps(opts.seconds, endToEnd, check)
		if err != nil {
			return err
		}
		r.sample("to_model_s", reps.seconds)
		r.sample("alloc_mb", reps.allocMB)
		r.notef("to_model_s here is model_s: %d-tower dataset → result + all-tower decomposition, decisions %s", in.ds.NumTowers(), want)
		return nil
	}

	tr := newTracer()
	var staged *core.Result
	untraced, replays, err := r.tracedReps(opts.seconds, tr, endToEnd, check, func() (err error) {
		staged, err = stagedAnalyze(ctx, tr, in.ds, in.city.POIs, analyzeOpts)
		if err != nil {
			return err
		}
		return tr.stage("freqdomain.decompose_all", func() (err error) {
			decs, err = decomposeAll(staged)
			return err
		})
	}, func(int) error {
		r.op(sameDecisions("staged replay", digest(staged), want))
		r.op(checkDecompositions(decs, in.ds.NumTowers()))
		if err := probeDistances(ctx, tr, in.ds); err != nil {
			return err
		}
		return probeAnalyze(ctx, tr, in.ds, in.city.POIs, analyzeOpts)
	})
	if err != nil {
		return err
	}
	layerMetrics(r, tr, untraced, replays)
	flagCoverage(r)
	path, err := tr.write("batch-model", opts.seed)
	if err != nil {
		return err
	}
	r.notef("spans written to %s; decisions %s", path, want)
	return nil
}
