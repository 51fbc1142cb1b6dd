package repro

// bench_test.go is the repository-level benchmark harness: one benchmark
// per table and figure of the paper's evaluation (driving the same runners
// as cmd/experiments), plus the end-to-end pipeline stages, the
// slice-vs-streaming ingestion comparison and the ablation studies (see
// README.md for the package map).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The shared environment (synthetic city, vectorised dataset, full
// analysis) is built once per scale and reused across benchmarks; each
// benchmark iteration then measures only the experiment's own work.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/forecast"
	"repro/internal/label"
	"repro/internal/linalg"
	"repro/internal/nmf"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/trace"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// benchScale picks the workload size: the small scale by default so the
// full suite stays laptop-friendly; set REPRO_BENCH_SCALE=paper for the
// four-week, 1200-tower configuration cmd/experiments -scale paper runs.
func benchScale() experiments.Scale {
	if os.Getenv("REPRO_BENCH_SCALE") == "paper" {
		return experiments.PaperScale()
	}
	return experiments.SmallScale()
}

func sharedEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.Build(benchScale())
	})
	if benchEnvErr != nil {
		b.Fatalf("building benchmark environment: %v", benchEnvErr)
	}
	return benchEnv
}

// benchExperiment runs one registered experiment repeatedly.
func benchExperiment(b *testing.B, name string) {
	env := sharedEnv(b)
	runner, err := experiments.RunnerByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(env); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
}

// --- One benchmark per paper artefact -----------------------------------

func BenchmarkFigure1_TemporalDistribution(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFigure2_SpatialDensity(b *testing.B)         { benchExperiment(b, "fig2") }
func BenchmarkFigure3_ResidentVsOffice(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFigure4_TrafficByLatLon(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkFigure5_RegionHeatmaps(b *testing.B)         { benchExperiment(b, "fig5") }
func BenchmarkFigure6_DBIPatternsAndCDF(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkTable1_ClusterShares(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkFigure7_ClusterGeoDensity(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkTable2_POIAtDensestPoint(b *testing.B)       { benchExperiment(b, "table2") }
func BenchmarkFigure8_CaseStudy(b *testing.B)              { benchExperiment(b, "fig8") }
func BenchmarkTable3_NormalizedPOI(b *testing.B)           { benchExperiment(b, "table3") }
func BenchmarkFigure9_POIShares(b *testing.B)              { benchExperiment(b, "fig9") }
func BenchmarkFigure10_WeekdayWeekendRatios(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkTable4_PeakValleyFeatures(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkTable5_PeakValleyTimes(b *testing.B)         { benchExperiment(b, "table5") }
func BenchmarkFigure11_Interrelationships(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFigure12_DFTReconstruction(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFigure13_SpectrumVariance(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFigure14_PatternReconstruction(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFigure15_AmplitudePhaseScatter(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFigure16_AmplitudePhaseStats(b *testing.B)   { benchExperiment(b, "fig16") }
func BenchmarkFigure17_PrimaryComponents(b *testing.B)     { benchExperiment(b, "fig17") }
func BenchmarkTable6_ConvexCombination(b *testing.B)       { benchExperiment(b, "table6") }
func BenchmarkFigure18_FreqCombination(b *testing.B)       { benchExperiment(b, "fig18") }
func BenchmarkFigure19_TimeCombination(b *testing.B)       { benchExperiment(b, "fig19") }

// --- End-to-end pipeline stages ------------------------------------------

// BenchmarkPipeline_GenerateCity measures synthetic city generation.
func BenchmarkPipeline_GenerateCity(b *testing.B) {
	scale := benchScale()
	cfg := synth.DefaultConfig()
	cfg.Towers = scale.Towers
	cfg.Days = scale.Days
	cfg.Seed = scale.Seed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.GenerateCity(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline_BuildDataset measures traffic generation plus
// vectorisation for the whole city.
func BenchmarkPipeline_BuildDataset(b *testing.B) {
	env := sharedEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.City.BuildDataset(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline_FullAnalysis measures the complete model: clustering,
// metric tuner, labelling, time- and frequency-domain analysis — once per
// modeling precision. The float32 sub-run exercises the narrowed fast path
// end to end (same decisions, see the core precision tests).
func BenchmarkPipeline_FullAnalysis(b *testing.B) {
	env := sharedEnv(b)
	for _, c := range []struct {
		name string
		prec core.Precision
	}{{"float64", core.Float64}, {"float32", core.Float32}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.AnalyzeContext(context.Background(), env.Dataset, env.City.POIs, core.Options{ForceK: 5, Precision: c.prec}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Slice vs streaming ingestion ----------------------------------------

// ingestCity builds a small city and its ground-truth series for the
// ingestion benchmarks; the CDR log it emits has duplicates and conflicts
// for the cleaner to remove.
func ingestCity(b *testing.B) (*synth.City, []synth.TowerSeries, pipeline.VectorizerOptions) {
	b.Helper()
	cfg := synth.SmallConfig()
	cfg.Towers = 120
	cfg.Users = 1000
	cfg.Days = 7
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		b.Fatal(err)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		b.Fatal(err)
	}
	return city, series, pipeline.VectorizerOptions{
		Start:       cfg.Start,
		Days:        cfg.Days,
		SlotMinutes: cfg.SlotMinutes,
	}
}

// vectorizeSource and vectorizeRecords are the ctx-less and slice wrappers
// pipeline shed (only tests and benchmarks called them).
func vectorizeSource(src trace.Source, towers []trace.TowerInfo, vopts pipeline.VectorizerOptions) (*pipeline.Dataset, error) {
	return pipeline.VectorizeSourceContext(context.Background(), src, towers, vopts)
}

func vectorizeRecords(records []trace.Record, towers []trace.TowerInfo, vopts pipeline.VectorizerOptions) (*pipeline.Dataset, error) {
	return vectorizeSource(trace.SliceSource(records), towers, vopts)
}

// BenchmarkIngest_CityLogsSlice measures the materialised ingestion path:
// emit the full CDR log as a slice, batch-clean it, vectorise the
// records. Allocations grow with the number of records.
func BenchmarkIngest_CityLogsSlice(b *testing.B) {
	city, series, vopts := ingestCity(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records, err := city.GenerateLogs(series, synth.LogOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cleaned, _ := trace.Clean(records)
		if _, err := vectorizeRecords(cleaned, city.TowerInfos(), vopts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngest_CityLogsStream measures the same workload through the
// streaming ingestion layer: the log source feeds the single-pass cleaner
// and the sharded vectorizer batch by batch, so allocations stay at
// O(towers × slots) regardless of trace length.
func BenchmarkIngest_CityLogsStream(b *testing.B) {
	city, series, vopts := ingestCity(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := city.LogSource(series, synth.LogOptions{})
		cleaned := trace.CleanSource(src)
		if _, err := vectorizeSource(cleaned, city.TowerInfos(), vopts); err != nil {
			b.Fatal(err)
		}
		src.Close()
	}
}

// --- Ingestion engine: batched vs parallel CSV parse ---------------------

// BenchmarkIngest_{Batched,Parallel} measure the raw CSV→Record parse
// throughput over the identical in-memory trace (so disk speed is out of
// the picture): the zero-allocation byte-level Scanner pulling batches,
// and the order-preserving ParallelCSVSource fanning chunk parsing across
// all cores. (The encoding/csv reader they replaced is a test oracle in
// internal/trace and is not perf-gated.) Output is benchstat-friendly:
// compare the records/s metric (and MB/s) across the two, and
// allocs/record for the steady-state allocation story.

var (
	ingestCSVOnce sync.Once
	ingestCSVData []byte
	ingestCSVRecs int
	ingestCSVErr  error
)

// ingestTraceCSV renders a synthetic city's CDR log to CSV bytes once
// per process: ~360k records at the default scale, ~2.9M with
// REPRO_BENCH_SCALE=paper.
func ingestTraceCSV(b *testing.B) ([]byte, int) {
	b.Helper()
	ingestCSVOnce.Do(func() {
		cfg := synth.SmallConfig()
		cfg.Towers = 120
		cfg.Users = 1000
		cfg.Days = 7
		if os.Getenv("REPRO_BENCH_SCALE") == "paper" {
			cfg.Towers = 480
			cfg.Days = 14
		}
		city, err := synth.GenerateCity(cfg)
		if err != nil {
			ingestCSVErr = err
			return
		}
		series, err := city.GenerateSeries()
		if err != nil {
			ingestCSVErr = err
			return
		}
		src := city.LogSource(series, synth.LogOptions{})
		defer src.Close()
		var buf bytes.Buffer
		cw := trace.NewCSVWriter(&buf)
		if err := trace.ForEachBatch(src, cw.WriteBatch); err != nil {
			ingestCSVErr = err
			return
		}
		if err := cw.Flush(); err != nil {
			ingestCSVErr = err
			return
		}
		ingestCSVData = buf.Bytes()
		ingestCSVRecs = cw.Count()
	})
	if ingestCSVErr != nil {
		b.Fatalf("building ingestion benchmark trace: %v", ingestCSVErr)
	}
	return ingestCSVData, ingestCSVRecs
}

// benchIngest drives one parse path over the shared trace and reports
// records/s and allocs/record alongside the standard ns/op, MB/s and
// allocs/op columns.
func benchIngest(b *testing.B, parse func(data []byte) (int, error)) {
	data, recs := ingestTraceCSV(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := parse(data)
		if err != nil {
			b.Fatal(err)
		}
		if got != recs {
			b.Fatalf("parsed %d records, want %d", got, recs)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(recs)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N)/float64(recs), "allocs/record")
}

// BenchmarkIngest_Batched is the zero-allocation byte-level Scanner
// draining through NextBatch.
func BenchmarkIngest_Batched(b *testing.B) {
	batch := make([]trace.Record, trace.DefaultBatchSize)
	benchIngest(b, func(data []byte) (int, error) {
		sc, err := trace.NewScanner(bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		n := 0
		for {
			m, err := sc.NextBatch(batch)
			n += m
			if err != nil {
				if errors.Is(err, io.EOF) {
					return n, nil
				}
				return n, err
			}
		}
	})
}

// BenchmarkIngest_Parallel is the order-preserving chunk-parallel parser
// on all cores. On a single-core runner it degrades to roughly the
// batched scanner plus chunk-handoff overhead; the speedup shows on
// multi-core hardware.
func BenchmarkIngest_Parallel(b *testing.B) {
	batch := make([]trace.Record, trace.DefaultBatchSize)
	benchIngest(b, func(data []byte) (int, error) {
		p, err := trace.NewParallelCSVSource(bytes.NewReader(data), 0)
		if err != nil {
			return 0, err
		}
		defer p.Close()
		n := 0
		for {
			m, err := p.NextBatch(batch)
			n += m
			if err != nil {
				if errors.Is(err, io.EOF) {
					return n, nil
				}
				return n, err
			}
		}
	})
}

// --- Cleaning stage: dedup state under three feed orders ------------------

// BenchmarkClean drains ~1.57 M generated records (300 towers, 14 days,
// 3 % duplicates and 1 % conflicts) through the streaming cleaner alone,
// in the three orders that bound its behaviour: tower-major (a per-tower
// CDR export), time-major (a live feed) and uniformly shuffled (no
// locality at all — no export has this shape; it is the worst case for
// the locality-indexed dedup state and is tracked so it stays bounded).
func BenchmarkClean(b *testing.B) {
	cfg := synth.SmallConfig()
	cfg.Towers = 300
	cfg.Users = 50 * cfg.Towers
	cfg.Days = 14
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		b.Fatal(err)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		timeMajor bool
		shuffle   bool
	}{{"tower-major", false, false}, {"time-major", true, false}, {"shuffled", false, true}} {
		b.Run(c.name, func(b *testing.B) {
			records, err := city.GenerateLogs(series, synth.LogOptions{TimeMajor: c.timeMajor})
			if err != nil {
				b.Fatal(err)
			}
			if c.shuffle {
				rng := rand.New(rand.NewSource(1))
				rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
			}
			// An own batch buffer, not the pooled one: the GC empties the
			// pool at will, and allocs/op must repeat for the bench gate.
			batch := make([]trace.Record, trace.DefaultBatchSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := trace.CleanSource(trace.SliceSource(records))
				for {
					if _, err := src.NextBatch(batch); err != nil {
						if !errors.Is(err, io.EOF) {
							b.Fatal(err)
						}
						break
					}
				}
				if stats := src.Stats(); stats.Input != len(records) || stats.Duplicates == 0 || stats.Conflicts == 0 {
					b.Fatalf("clean stats %+v over %d records", stats, len(records))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(records)), "ns/record")
		})
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblation_ReconstructionComponents extends Figure 12 by sweeping
// the number of retained spectral components and reporting the energy loss.
func BenchmarkAblation_ReconstructionComponents(b *testing.B) {
	env := sharedEnv(b)
	agg, err := env.Dataset.AggregateRaw(nil)
	if err != nil {
		b.Fatal(err)
	}
	week, day, half, err := dsp.PrincipalBins(env.Dataset.NumSlots(), env.Dataset.Days)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		bins []int
	}{
		{"day-only", []int{day}},
		{"day+week", []int{day, week}},
		{"principal-3", []int{week, day, half}},
		{"principal+2harmonics", []int{week, day, half, 3 * day, 4 * day}},
		{"principal+sidebands", []int{week, day, half, day - week, day + week, half - week, half + week}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var loss float64
			for i := 0; i < b.N; i++ {
				_, l, err := env.Plan.Reconstruct(agg, c.bins...)
				if err != nil {
					b.Fatal(err)
				}
				loss = l
			}
			b.ReportMetric(100*loss, "energy-loss-%")
		})
	}
}

// BenchmarkAblation_NoiseRobustness re-generates the city at increasing
// traffic noise and reports the clustering purity against ground truth.
func BenchmarkAblation_NoiseRobustness(b *testing.B) {
	scale := benchScale()
	for _, noise := range []float64{0.05, 0.10, 0.20, 0.40} {
		noise := noise
		b.Run(formatNoise(noise), func(b *testing.B) {
			b.ReportAllocs()
			var purity float64
			for i := 0; i < b.N; i++ {
				cfg := synth.DefaultConfig()
				cfg.Towers = scale.Towers / 2
				cfg.Days = 14
				cfg.Seed = scale.Seed
				cfg.NoiseSigma = noise
				city, err := synth.GenerateCity(cfg)
				if err != nil {
					b.Fatal(err)
				}
				ds, err := city.BuildDataset()
				if err != nil {
					b.Fatal(err)
				}
				dendro, err := cluster.HierarchicalWorkersCtx(context.Background(), ds.Normalized, cluster.AverageLinkage, 0)
				if err != nil {
					b.Fatal(err)
				}
				assign, err := dendro.CutK(5)
				if err != nil {
					b.Fatal(err)
				}
				truth, err := city.GroundTruthRegions(ds)
				if err != nil {
					b.Fatal(err)
				}
				truthInts := make([]int, len(truth))
				for j, r := range truth {
					truthInts[j] = int(r)
				}
				_, p, err := cluster.PurityAgainstTruth(assign, truthInts)
				if err != nil {
					b.Fatal(err)
				}
				purity = p
			}
			b.ReportMetric(purity, "purity@5")
		})
	}
}

// BenchmarkAblation_NMFDecomposition compares the NMF decomposition
// baseline against the paper's clustering: factorise the raw traffic matrix
// at rank 5 and report how well the dominant-basis assignment matches the
// hierarchical clustering (adjusted Rand index).
func BenchmarkAblation_NMFDecomposition(b *testing.B) {
	env := sharedEnv(b)
	b.ReportAllocs()
	var ari float64
	for i := 0; i < b.N; i++ {
		res, err := nmf.FactorizeContext(context.Background(), env.Dataset.Raw, nmf.Options{Rank: 5, Seed: int64(i + 1), MaxIterations: 80})
		if err != nil {
			b.Fatal(err)
		}
		a, err := cluster.AdjustedRandIndex(res.DominantBasis(), env.Result.Assignment.Labels)
		if err != nil {
			b.Fatal(err)
		}
		ari = a
	}
	b.ReportMetric(ari, "ARI-vs-hierarchical")
}

// BenchmarkAblation_POIOnlyLabeling compares the POI-only baseline labeller
// (no traffic information) against the traffic-based pipeline, reporting
// its ground-truth accuracy.
func BenchmarkAblation_POIOnlyLabeling(b *testing.B) {
	env := sharedEnv(b)
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		labels, err := label.LabelTowersByPOI(env.Result.TowerPOI, label.POIOnlyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		overall, _, err := label.Accuracy(labels, env.Truth)
		if err != nil {
			b.Fatal(err)
		}
		acc = overall
	}
	b.ReportMetric(acc, "accuracy")
}

// BenchmarkAblation_ForecastModels backtests the per-tower forecasting
// models of package forecast on a sample of towers, reporting the median
// normalised RMSE of each model (the Figure 12 observation turned into the
// ISP use case).
func BenchmarkAblation_ForecastModels(b *testing.B) {
	env := sharedEnv(b)
	ds := env.Dataset
	if ds.Days < 14 {
		b.Skip("forecast ablation needs at least two weeks of data")
	}
	trainDays := ds.Days - 7
	models := []func() forecast.Model{
		func() forecast.Model { return &forecast.SpectralModel{Components: forecast.Principal} },
		func() forecast.Model { return &forecast.SpectralModel{Components: forecast.HarmonicsAndSidebands} },
		func() forecast.Model { return &forecast.LastWeekModel{} },
		func() forecast.Model { return &forecast.SlotOfWeekMeanModel{} },
	}
	for _, mk := range models {
		mk := mk
		name := mk().Name()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var nrmse float64
			for i := 0; i < b.N; i++ {
				var sum float64
				var n int
				for row := 0; row < ds.NumTowers(); row += 10 {
					metrics, err := forecast.Backtest(mk(), ds.Raw[row], ds.Days, trainDays, ds.SlotsPerDay())
					if err != nil {
						b.Fatal(err)
					}
					sum += metrics.NRMSE
					n++
				}
				nrmse = sum / float64(n)
			}
			b.ReportMetric(nrmse, "mean-NRMSE")
		})
	}
}

func formatNoise(noise float64) string {
	switch {
	case noise < 0.075:
		return "noise-0.05"
	case noise < 0.15:
		return "noise-0.10"
	case noise < 0.3:
		return "noise-0.20"
	default:
		return "noise-0.40"
	}
}

// --- Modeling engine ----------------------------------------------------

// The modeling-engine benchmarks measure the deterministic parallel stage
// (condensed NN-chain hierarchical clustering, parallel NMF) on synthetic traffic-shaped vectors at one week of 10-minute slots.
// The default tower count keeps the CI benchmark smoke run fast; set
// REPRO_BENCH_SCALE=paper for the ≈10k towers of the paper's deployment.
// Each benchmark has a serial and an all-cores sub-run so the multi-core
// speedup is visible directly in the output.

const modelSlots = 7 * 144 // one week of 10-minute slots

func modelTowers() int {
	if os.Getenv("REPRO_BENCH_SCALE") == "paper" {
		return 10000
	}
	return 1000
}

var (
	modelPointsOnce sync.Once
	modelRawRows    []linalg.Vector
	modelNormRows   []linalg.Vector
)

// modelingPoints generates diurnal traffic-shaped rows once per process:
// raw (non-negative, for NMF) and z-scored (for the clustering paths).
func modelingPoints(b *testing.B) (raw, norm []linalg.Vector) {
	b.Helper()
	modelPointsOnce.Do(func() {
		rng := rand.New(rand.NewSource(97))
		towers := modelTowers()
		modelRawRows = make([]linalg.Vector, towers)
		modelNormRows = make([]linalg.Vector, towers)
		for i := range modelRawRows {
			row := make(linalg.Vector, modelSlots)
			phase := rng.Float64() * 2 * math.Pi
			amp := rng.Float64()*40 + 10
			for j := range row {
				hour := float64(j%144) / 144 * 2 * math.Pi
				row[j] = amp*(1.3+math.Sin(hour+phase)) + rng.Float64()*3
			}
			modelRawRows[i] = row
			modelNormRows[i] = make(linalg.Vector, modelSlots)
			_ = linalg.ZScoreNormalizeInto(modelNormRows[i], row) // lengths match
		}
	})
	return modelRawRows, modelNormRows
}

// benchWorkers runs fn once per parallelism level (serial vs all cores).
func benchWorkers(b *testing.B, fn func(b *testing.B, workers int)) {
	for _, c := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"allcores", 0}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			fn(b, c.workers)
		})
	}
}

// --- Distance engine ------------------------------------------------------

// distTowers and distSlots pin the acceptance workload of the blocked
// distance engine: 2,000 towers of week-long 10-minute vectors.
const (
	distTowers = 2000
	distSlots  = 1008
)

var (
	distOnce   sync.Once
	distMatrix *linalg.Matrix
)

func distancePoints(b *testing.B) *linalg.Matrix {
	b.Helper()
	distOnce.Do(func() {
		rng := rand.New(rand.NewSource(211))
		distMatrix = linalg.NewMatrix(distTowers, distSlots)
		for i := 0; i < distTowers; i++ {
			row := distMatrix.Row(i)
			phase := rng.Float64() * 2 * math.Pi
			for j := range row {
				hour := float64(j%144) / 144 * 2 * math.Pi
				row[j] = math.Sin(hour+phase) + rng.NormFloat64()*0.2
			}
		}
	})
	return distMatrix
}

// BenchmarkCluster_Distances pits the blocked Gram-trick condensed kernel
// (the clustering engine's distance stage) against the per-pair
// subtract-square oracle it replaced, on the same 2,000×1,008 workload.
// The "blocked/serial" sub-run is the single-core comparison and must run
// at 0 allocs/op warmed; "blocked/allcores" shows the strip-parallel
// speedup on multi-core hardware.
func BenchmarkCluster_Distances(b *testing.B) {
	x := distancePoints(b)
	n := x.Rows
	cond := make([]float64, n*(n-1)/2)
	norms := make(linalg.Vector, n)
	rows := x.RowViews()

	b.Run("perpair-oracle", func(b *testing.B) {
		b.ReportAllocs()
		for it := 0; it < b.N; it++ {
			idx := 0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					sq, err := linalg.SquaredDistance(rows[i], rows[j])
					if err != nil {
						b.Fatal(err)
					}
					cond[idx] = math.Sqrt(sq)
					idx++
				}
			}
		}
		reportPairRate(b, n)
	})
	for _, c := range []struct {
		name    string
		workers int
	}{{"blocked/serial", 1}, {"blocked/allcores", 0}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				if err := linalg.PairwiseSquaredCondensedCtx(context.Background(), cond, x, norms, c.workers); err != nil {
					b.Fatal(err)
				}
				if err := linalg.SquaredDistancesSqrtInPlaceCtx(context.Background(), cond, c.workers); err != nil {
					b.Fatal(err)
				}
			}
			reportPairRate(b, n)
		})
	}

	// The same condensed kernel at float32: half the memory traffic and
	// twice the SIMD lanes through the 8-wide AVX2 float32 micro-kernels.
	x32 := linalg.NewMat[float32](x.Rows, x.Cols)
	for i, v := range x.Data {
		x32.Data[i] = float32(v)
	}
	cond32 := make([]float32, n*(n-1)/2)
	norms32 := make(linalg.Vector32, n)
	for _, c := range []struct {
		name    string
		workers int
	}{{"blocked32/serial", 1}, {"blocked32/allcores", 0}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				if err := linalg.PairwiseSquaredCondensedCtx(context.Background(), cond32, x32, norms32, c.workers); err != nil {
					b.Fatal(err)
				}
				if err := linalg.SquaredDistancesSqrtInPlaceCtx(context.Background(), cond32, c.workers); err != nil {
					b.Fatal(err)
				}
			}
			reportPairRate(b, n)
		})
	}
}

// reportPairRate adds a pairs/s metric so the speedup reads directly off
// the benchmark output.
func reportPairRate(b *testing.B, n int) {
	pairs := float64(n) * float64(n-1) / 2
	b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkCluster_Hierarchical measures the condensed NN-chain engine on
// the week-long vectors (the paper's pattern-identifier stage).
func BenchmarkCluster_Hierarchical(b *testing.B) {
	_, norm := modelingPoints(b)
	benchWorkers(b, func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.HierarchicalWorkersCtx(context.Background(), norm, cluster.AverageLinkage, workers); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNMF_Factorize measures the rank-5 factorisation of the raw
// traffic matrix: Gram-form updates on the dot kernels plus the fused
// residual.
func BenchmarkNMF_Factorize(b *testing.B) {
	raw, _ := modelingPoints(b)
	benchWorkers(b, func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			opts := nmf.Options{Rank: 5, Seed: 3, MaxIterations: 30, Workers: workers}
			if _, err := nmf.FactorizeContext(context.Background(), raw, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
