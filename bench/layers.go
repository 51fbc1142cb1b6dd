package main

// Every call the traced pass makes into a layer's public API lives in this
// file, in the order core.AnalyzeSourceContext, core.AnalyzeContext and
// (*serve.Server).RemodelNow compose them, so that a later change to those
// APIs touches one benchmark file. The staged replays produce the same
// decisions as the end-to-end calls; the workloads compare the two.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/anomaly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/forecast"
	"repro/internal/freqdomain"
	"repro/internal/label"
	"repro/internal/linalg"
	"repro/internal/nmf"
	"repro/internal/pipeline"
	"repro/internal/poi"
	"repro/internal/serve"
	"repro/internal/timedomain"
	"repro/internal/trace"
	"repro/internal/window"
)

// The defaults core.Options.withDefaults applies; the workloads leave
// these fields zero, so the replay must fill in the same values.
const (
	minClusters       = 2
	maxClusters       = 10
	smoothWindowSlots = 3
)

// drain pulls a source dry batch-wise and returns its records.
func drain(src trace.Source, sizeHint int) ([]trace.Record, error) {
	out := make([]trace.Record, 0, sizeHint)
	err := trace.ForEachBatch(trace.Batched(src), func(batch []trace.Record) error {
		out = append(out, batch...)
		return nil
	})
	return out, err
}

// stagedIngest replays the ingest half of core.AnalyzeSourceContext —
// scan, clean, vectorize — one layer at a time, materialising the records
// between the layers (end to end they stream). scan opens the scanner the
// workload uses: parallel for batch-ingest, serial for serve-mixed.
func stagedIngest(ctx context.Context, tr *tracer, csv []byte, records int, scan func(io.Reader) (trace.Source, func(), error)) (cleaned []trace.Record, stats trace.CleanStats, err error) {
	var raw []trace.Record
	err = tr.stage("trace.scan", func() error {
		src, closeSrc, err := scan(bytes.NewReader(csv))
		if err != nil {
			return err
		}
		defer closeSrc()
		raw, err = drain(src, records)
		tr.count("records", float64(len(raw)))
		tr.count("bytes", float64(len(csv)))
		return err
	})
	if err != nil {
		return nil, stats, err
	}
	err = tr.stage("trace.clean", func() error {
		src := trace.CleanSourceContext(ctx, trace.SliceSource(raw))
		cleaned, err = drain(src, len(raw))
		stats = src.Stats()
		tr.count("removed", float64(stats.Input-stats.Output))
		return err
	})
	return cleaned, stats, err
}

func scanParallel(r io.Reader) (trace.Source, func(), error) {
	src, err := trace.NewParallelCSVSource(r, 0)
	if err != nil {
		return nil, nil, err
	}
	return src, src.Close, nil
}

func scanSerial(r io.Reader) (trace.Source, func(), error) {
	src, err := trace.NewScanner(r)
	if err != nil {
		return nil, nil, err
	}
	return src, src.Close, nil
}

func stagedVectorize(ctx context.Context, tr *tracer, cleaned []trace.Record, towers []trace.TowerInfo, vopts pipeline.VectorizerOptions) (ds *pipeline.Dataset, err error) {
	err = tr.stage("pipeline.vectorize", func() error {
		ds, err = pipeline.VectorizeSourceContext(ctx, trace.SliceSource(cleaned), towers, vopts)
		return err
	})
	return ds, err
}

// stagedAnalyze replays core.AnalyzeContext for the option set the
// workloads use (float64, no forced K, no k-means baseline) and returns a
// core.Result carrying every decision the stages made. The per-cluster
// views hold only what Result.PrimaryComponents reads.
func stagedAnalyze(ctx context.Context, tr *tracer, ds *pipeline.Dataset, pois []poi.POI, opts core.Options) (*core.Result, error) {
	res := &core.Result{Dataset: ds, Clock: timedomain.Clock{Start: ds.Start, SlotMinutes: ds.SlotMinutes}}
	err := tr.stage("cluster.hierarchical", func() (err error) {
		res.Dendrogram, err = cluster.HierarchicalWorkersCtx(ctx, ds.Normalized, opts.Linkage, opts.Workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = tr.stage("cluster.dbi_sweep", func() (err error) {
		maxK := min(maxClusters, ds.NumTowers())
		res.OptimalK, res.DBICurve, err = cluster.OptimalKCtx(ctx, ds.Normalized, res.Dendrogram, min(minClusters, maxK), maxK, opts.Workers)
		if err != nil {
			return err
		}
		res.Assignment, err = res.Dendrogram.CutK(res.OptimalK)
		return err
	})
	if err != nil {
		return nil, err
	}
	if opts.NMFRank != 0 {
		err = tr.stage("nmf.factorize", func() (err error) {
			rank := opts.NMFRank
			if rank == core.NMFRankAuto {
				rank = min(res.OptimalK, ds.NumSlots())
			}
			res.NMF, err = nmf.FactorizeContext(ctx, ds.Raw, nmf.Options{Rank: rank, Seed: opts.Seed, Workers: opts.Workers})
			if err != nil {
				return err
			}
			res.DominantBasis = res.NMF.DominantBasis()
			tr.count("iterations", float64(res.NMF.Iterations))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	members := res.Assignment.Members()
	err = tr.stage("poi.count", func() error {
		counter, err := poi.NewCounter(pois, poi.DefaultRadiusMeters)
		if err != nil {
			return err
		}
		res.TowerPOI = counter.CountAll(ds.Locations, poi.DefaultRadiusMeters)
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = tr.stage("label.label", func() (err error) {
		res.Labeling, err = label.LabelClusters(res.TowerPOI, members)
		if err != nil {
			return err
		}
		res.ClusterLabels = res.Labeling.Labels
		res.TowerRegions, err = label.TowerLabels(res.ClusterLabels, res.Assignment.Labels)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = tr.stage("freqdomain.extract", func() error {
		plan, err := dsp.AcquirePlan(ds.NumSlots())
		if err != nil {
			return err
		}
		defer plan.Release()
		res.Features, err = freqdomain.ExtractPlanContext(ctx, plan, ds.Normalized, ds.Days)
		return err
	})
	if err != nil {
		return nil, err
	}
	var reps []int
	err = tr.stage("freqdomain.representatives", func() (err error) {
		reps, err = freqdomain.RepresentativeTowers(res.Features, res.Assignment, opts.RepOptions)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Clusters = make([]core.ClusterView, res.Assignment.K)
	err = tr.stage("timedomain.summarize", func() error {
		for c := range res.Clusters {
			view := core.ClusterView{Index: c, Region: res.ClusterLabels[c], Members: members[c], Representative: reps[c]}
			if len(members[c]) > 0 {
				agg, err := ds.AggregateRaw(members[c])
				if err != nil {
					return err
				}
				view.TimeSummary, err = timedomain.Summarize(agg, res.Clock, smoothWindowSlots)
				if err != nil {
					return err
				}
			}
			res.Clusters[c] = view
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// decomposeAll is the tail of the batch-model operation: every tower as a
// convex combination of the four primary components.
func decomposeAll(res *core.Result) ([]*freqdomain.Decomposition, error) {
	primaries, err := res.PrimaryComponents()
	if err != nil {
		return nil, err
	}
	return freqdomain.DecomposeAll(res.Features, primaries)
}

// stagedRemodel replays (*serve.Server).RemodelNow up to the admission
// gate: window handoff, analysis, anomaly sweep, per-tower forecasts and
// the validity indices the gate measures. What RemodelNow does beyond
// these calls (gate verdict, history, pointer swap, SSE publication) is
// serve.self_s.
func stagedRemodel(ctx context.Context, tr *tracer, w *window.Window, cfg serve.Config) (*core.Result, error) {
	var ds *pipeline.Dataset
	err := tr.stage("window.dataset", func() (err error) {
		ds, err = w.Dataset()
		return err
	})
	if err != nil {
		return nil, err
	}
	res, err := stagedAnalyze(ctx, tr, ds, cfg.POIs, cfg.Analyze)
	if err != nil {
		return nil, err
	}
	err = tr.stage("anomaly.detect_all", func() error {
		reports, err := anomaly.DetectAll(ds.Raw, ds.Days, cfg.Anomaly)
		flagged := 0
		for _, rep := range reports {
			if rep != nil {
				flagged += len(rep.Anomalies)
			}
		}
		tr.count("flagged", float64(flagged))
		return err
	})
	if err != nil {
		return nil, err
	}
	err = tr.stage("forecast.backtest_fit", func() error {
		if ds.Days < 14 {
			return nil
		}
		spd := ds.SlotsPerDay()
		for _, row := range ds.Raw {
			m := &forecast.SpectralModel{Components: forecast.HarmonicsAndSidebands}
			if _, err := forecast.Backtest(m, row, ds.Days, ds.Days-7, spd); err != nil {
				continue
			}
			full := &forecast.SpectralModel{Components: forecast.HarmonicsAndSidebands}
			if err := full.Fit(row, ds.Days, spd); err != nil {
				continue
			}
			if _, err := full.Predict(spd); err != nil {
				continue
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = tr.stage("cluster.validity", func() error {
		if _, err := cluster.DaviesBouldinWorkers(ds.Normalized, res.Assignment, cfg.Analyze.Workers); err != nil {
			return err
		}
		_, err := cluster.SilhouetteWorkers(ds.Normalized, res.Assignment, cfg.Analyze.Workers)
		return err
	})
	return res, err
}

// probeAnalyze times the real core.AnalyzeContext beside its staged
// replay: core.self_s is this call minus the replay's stages.
func probeAnalyze(ctx context.Context, tr *tracer, ds *pipeline.Dataset, pois []poi.POI, opts core.Options) error {
	return tr.probe("core.analyze", func() error {
		_, err := core.AnalyzeContext(ctx, ds, pois, opts)
		return err
	})
}

// probeDistances times the condensed distance kernel on its own; the
// clustering span contains the same call followed by the NN-chain.
func probeDistances(ctx context.Context, tr *tracer, ds *pipeline.Dataset) error {
	return tr.probe("linalg.distances", func() error {
		x, err := linalg.RowsMatrix(ds.Normalized)
		if err != nil {
			return err
		}
		n := x.Rows
		dst := make([]float64, n*(n-1)/2)
		tr.count("pairs", float64(len(dst)))
		return linalg.PairwiseSquaredCondensedCtx(ctx, dst, x, nil, 0)
	})
}

// stagedAddBatch feeds cleaned records into w, a fresh window configured
// like the service's (guards on), in the batches the ingest loop would use.
func stagedAddBatch(tr *tracer, w *window.Window, cleaned []trace.Record) error {
	return tr.stage("window.addbatch", func() error {
		for lo := 0; lo < len(cleaned); lo += trace.DefaultBatchSize {
			w.AddBatch(cleaned[lo:min(lo+trace.DefaultBatchSize, len(cleaned))])
		}
		tr.count("records", float64(len(cleaned)))
		return nil
	})
}

// probeSnapshots times the window's snapshot codec in memory and the
// generational store on disk (under bench/out).
func probeSnapshots(tr *tracer, w *window.Window) error {
	var buf bytes.Buffer
	if err := tr.probe("window.snapshot_write", func() error { return w.WriteSnapshot(&buf) }); err != nil {
		return err
	}
	err := tr.probe("window.snapshot_decode", func() error {
		tr.count("bytes", float64(buf.Len()))
		_, err := window.DecodeSnapshot(buf.Bytes())
		return err
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "snap-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store := serve.NewSnapshotStore(filepath.Join(dir, "window.snap"), 0, nil, nil)
	if err := tr.probe("serve.snapshot_save", func() error { _, err := store.Save(w); return err }); err != nil {
		return err
	}
	return tr.probe("serve.snapshot_restore", func() error {
		restored, _, err := store.Restore()
		if err == nil && restored == nil {
			err = errors.New("snapshot store restored nothing")
		}
		return err
	})
}

// handlerProbe is one endpoint's cost with no sockets and no background
// work: the handler serving into a recorder.
type handlerProbe struct {
	micros float64 // median over the rounds of µs per request
	allocs float64 // mallocs per request
}

// probeHandler serves every url once per round.
func probeHandler(h http.Handler, urls []string, rounds int) (handlerProbe, error) {
	perRound := make([]float64, 0, rounds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for _, u := range urls {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
			if rec.Code != http.StatusOK {
				return handlerProbe{}, fmt.Errorf("%s: status %d", u, rec.Code)
			}
		}
		perRound = append(perRound, time.Since(start).Seconds()*1e6/float64(len(urls)))
	}
	runtime.ReadMemStats(&after)
	return handlerProbe{
		micros: median(perRound),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(rounds*len(urls)),
	}, nil
}
