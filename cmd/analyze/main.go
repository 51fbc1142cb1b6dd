// Command analyze runs the full traffic-pattern pipeline on a trace
// directory produced by cmd/gentrace (or, with -synthetic, on an in-memory
// synthetic city) and prints the paper's headline tables: the cluster
// shares (Table 1), the averaged POI per cluster (Table 3), the time-domain
// characteristics (Tables 4 and 5) and the convex-combination coefficients
// of a few comprehensive towers (Table 6).
//
// Trace directories are ingested with streaming file I/O end-to-end: the
// logs flow through the zero-allocation CSV scanner (or, with
// -ingest-workers != 1, the order-preserving parallel chunk parser) into
// the cleaner and vectorizer in batches, so no record slice is ever
// materialised. Memory is towers × slots for the vectorizer plus the
// cleaner's exact dedup state (small hash tables per tower and start-time
// hour, ~77 bytes per distinct connection of the trace). Results are
// identical for any -ingest-workers value: the parallel parser
// reassembles chunks in input order.
//
// The modeling stage (hierarchical clustering, NMF basis extraction) runs
// in parallel; -workers bounds the goroutines and
// a given -seed produces bit-identical results for any worker count.
// -nmf-rank sizes the NMF decomposition (default: one basis pattern per
// identified cluster; 0 disables the stage).
//
// The run is fault-tolerant end-to-end: -timeout bounds the whole run
// through context cancellation (every worker pool drains before the
// process exits), and -max-bad-rows sets the ingestion error budget —
// -1 skips and counts malformed rows, 0 fails on the first with its line
// and byte offset, N > 0 tolerates at most N. Failures exit with distinct
// codes (3 timeout, 4 budget exceeded, 5 I/O error, 1 anything else) and
// a structured skip-stats footer breaks down every dropped row by cause.
//
// Examples:
//
//	analyze -trace ./trace
//	analyze -trace ./trace -ingest-workers 4
//	analyze -trace ./trace -timeout 30m -max-bad-rows 1000
//	analyze -synthetic -towers 600 -days 28
//	analyze -synthetic -stream -towers 400 -days 28
//	analyze -synthetic -workers 4 -seed 7 -nmf-rank 5
//	analyze -synthetic -precision float32
//	analyze -synthetic -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/pipeline"
	"repro/internal/poi"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/urban"
)

// Distinct exit codes let a supervising script tell the failure classes
// apart without parsing stderr: a run that overran its -timeout wants a
// bigger machine or a smaller trace, a blown error budget wants a look at
// the input data, and an I/O failure wants a look at the disk.
const (
	exitFailure = 1 // generic failure (bad flags, modeling error)
	exitTimeout = 3 // the -timeout deadline expired mid-run
	exitBudget  = 4 // the -max-bad-rows ingestion budget was exceeded
	exitIO      = 5 // reading the trace failed (I/O error, not bad data)
)

// exitCode classifies a run error into one of the exit codes above. Order
// matters: fail-fast and budget errors are wrapped in positioned
// *trace.PosError values, so the data-quality classes are tested before
// the positioned-I/O class.
func exitCode(err error) int {
	var posErr *trace.PosError
	var pathErr *fs.PathError
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return exitTimeout
	case errors.Is(err, trace.ErrBudgetExceeded) || errors.Is(err, trace.ErrRowRejected):
		return exitBudget
	case errors.As(err, &posErr) || errors.As(err, &pathErr):
		return exitIO
	default:
		return exitFailure
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("analyze: ")

	var (
		traceDir  = flag.String("trace", "", "trace directory produced by gentrace (towers.csv, poi.csv, logs.csv)")
		synthetic = flag.Bool("synthetic", false, "skip the trace files and analyse an in-memory synthetic city")
		stream    = flag.Bool("stream", false, "with -synthetic, ingest the city's CDR log through the full streaming path instead of the pre-aggregated series fast path")
		towers    = flag.Int("towers", 600, "towers for -synthetic")
		days      = flag.Int("days", 28, "days for -synthetic")
		seed      = flag.Int64("seed", 1, "seed for -synthetic city generation and for the modeling stage (NMF initialisation)")
		clusters  = flag.Int("k", 0, "force the number of clusters (0 = pick by Davies-Bouldin index)")
		workers   = flag.Int("workers", 0, "bound the parallelism of the modeling stage (0 = all cores); results are identical for any value")
		nmfRank   = flag.Int("nmf-rank", core.NMFRankAuto, "NMF decomposition rank (-1 = one basis per cluster, 0 = skip the NMF stage)")
		ingestW   = flag.Int("ingest-workers", 0, "parallelism of the CSV ingestion stage (0 = all cores, 1 = the serial zero-allocation scanner); the record stream is identical for any value")
		precision = flag.String("precision", "float64", "modeling precision: float64 (the bit-reproducible reference) or float32 (the fast path; same decisions, scores differ in the last digits)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf   = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
		timeout   = flag.Duration("timeout", 0, "abort the whole run (ingestion and modeling) after this long, exiting with code 3 (0 = no limit)")
		maxBad    = flag.Int("max-bad-rows", -1, "ingestion error budget: -1 skips and counts any number of malformed rows, 0 fails on the first one, N > 0 aborts with exit code 4 once more than N rows are skipped")
	)
	flag.Parse()

	var prec core.Precision
	switch *precision {
	case "float64", "f64", "64":
		prec = core.Float64
	case "float32", "f32", "32":
		prec = core.Float32
	default:
		log.Fatalf("unknown -precision %q (want float64 or float32)", *precision)
	}
	if *clusters < 0 {
		log.Fatalf("-k %d is negative (want 0 to let the Davies-Bouldin index choose, or a cluster count)", *clusters)
	}

	var cpuFile *os.File
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatalf("creating CPU profile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("starting CPU profile: %v", err)
		}
		cpuFile = f
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	policy := ingestPolicy(*maxBad)

	runErr := run(ctx, *traceDir, *synthetic, *stream, *towers, *days, *seed, *clusters, *workers, *nmfRank, *ingestW, prec, policy)

	// Flush the profiles even when the run failed: a profile of the work
	// done up to the error is exactly what a perf investigation wants.
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			log.Fatalf("closing CPU profile: %v", err)
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			log.Fatalf("creating heap profile: %v", err)
		}
		runtime.GC() // settle the heap so the profile shows what the run retains
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("writing heap profile: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("closing heap profile: %v", err)
		}
	}
	if runErr != nil {
		log.Print(runErr)
		os.Exit(exitCode(runErr))
	}
}

// ingestPolicy maps the -max-bad-rows flag onto a trace.ErrorPolicy. Every
// mode retries transient read errors a few times before giving up: a file
// served over a flaky mount should not kill an hours-long run.
func ingestPolicy(maxBad int) trace.ErrorPolicy {
	p := trace.ErrorPolicy{
		Retry: trace.RetryPolicy{MaxAttempts: 4, Backoff: 50 * time.Millisecond},
	}
	switch {
	case maxBad == 0:
		p.Mode = trace.PolicyFailFast
	case maxBad > 0:
		p.Mode = trace.PolicyBudget
		p.Budget = trace.Budget{MaxRows: maxBad}
	default:
		p.Mode = trace.PolicySkip
	}
	return p
}

func run(ctx context.Context, traceDir string, synthetic, stream bool, towers, days int, seed int64, forceK, workers, nmfRank, ingestWorkers int, prec core.Precision, policy trace.ErrorPolicy) error {
	opts := core.Options{
		ForceK:    forceK,
		Workers:   workers,
		Seed:      seed,
		NMFRank:   nmfRank,
		Precision: prec,
	}
	log.Printf("modeling precision %s, distance kernels: %s", prec, linalg.KernelDescription())
	var (
		res *core.Result
		err error
	)
	switch {
	case synthetic:
		res, err = runSynthetic(ctx, towers, days, seed, stream, opts)
	case traceDir != "":
		res, err = runTrace(ctx, traceDir, opts, ingestWorkers, policy)
	default:
		return fmt.Errorf("either -trace or -synthetic is required")
	}
	if err != nil {
		return err
	}
	printResult(res)
	return nil
}

// runSynthetic analyses an in-memory city: by default through the
// pre-aggregated series fast path, or with stream=true by emitting the
// CDR log record by record through the streaming cleaner and vectorizer.
func runSynthetic(ctx context.Context, towers, days int, seed int64, stream bool, opts core.Options) (*core.Result, error) {
	cfg := synth.DefaultConfig()
	cfg.Towers = towers
	cfg.Days = days
	cfg.Seed = seed
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating city: %w", err)
	}
	if !stream {
		ds, err := city.BuildDataset()
		if err != nil {
			return nil, fmt.Errorf("building dataset: %w", err)
		}
		return core.AnalyzeContext(ctx, ds, city.POIs, opts)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		return nil, fmt.Errorf("generating traffic series: %w", err)
	}
	src := city.LogSource(series, synth.LogOptions{})
	defer src.Close()
	res, stats, err := core.AnalyzeSourceContext(ctx, src, city.TowerInfos(), city.POIs, pipeline.VectorizerOptions{
		Start:       cfg.Start,
		Days:        cfg.Days,
		SlotMinutes: cfg.SlotMinutes,
	}, opts)
	if err != nil {
		return nil, fmt.Errorf("analysing stream: %w", err)
	}
	logCleanStats(stats)
	return res, nil
}

// runTrace analyses a gentrace output directory with streaming file I/O
// end-to-end: the logs are scanned once to derive the aggregation window
// and then streamed batch-wise through the cleaner and vectorizer, so
// the full record slice is never held in memory. ingestWorkers sets the
// parallelism of the CSV parse itself; the record stream is identical
// for any value.
func runTrace(ctx context.Context, dir string, opts core.Options, ingestWorkers int, policy trace.ErrorPolicy) (*core.Result, error) {
	towers, pois, err := loadMetadata(dir)
	if err != nil {
		return nil, err
	}

	logsPath := filepath.Join(dir, "logs.csv")
	start, days, err := scanWindow(ctx, logsPath, ingestWorkers, policy)
	if err != nil {
		return nil, err
	}
	log.Printf("aggregation window: %d days from %s", days, start.Format(time.RFC3339))

	logsFile, err := os.Open(logsPath)
	if err != nil {
		return nil, fmt.Errorf("opening logs.csv: %w", err)
	}
	defer logsFile.Close()
	src, err := trace.NewIngestSourceContext(ctx, bufio.NewReaderSize(logsFile, 1<<20), ingestWorkers, policy)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	audit := newTowerAudit(src, towers)
	res, stats, err := core.AnalyzeSourceContext(ctx, audit, towers, pois, pipeline.VectorizerOptions{
		Start: start,
		Days:  days,
	}, opts)
	skip := src.Stats()
	skip.UnknownTowers = audit.unknown
	if err != nil {
		// The footer matters most on the failure path: when the error
		// budget aborts a run, the per-category counts say what the input
		// was full of.
		log.Printf("ingestion skip stats: %s", skip)
		return nil, fmt.Errorf("analysing %s: %w", dir, err)
	}
	log.Printf("streamed %d records (%d rows skipped)", stats.Input, skip.SkippedRows())
	logCleanStats(stats)
	ds := res.Dataset
	log.Printf("vectorised %d towers × %d slots (%d days)", ds.NumTowers(), ds.NumSlots(), ds.Days)
	printSkipStats(skip)
	return res, nil
}

// towerAudit forwards a record stream unchanged while counting records
// whose tower has no entry in the metadata file. Such towers still get a
// dataset row (the vectorizer keeps every tower it sees), so this is an
// audit counter, not a filter; it feeds the UnknownTowers line of the
// skip-stats footer.
type towerAudit struct {
	src     trace.Source
	known   map[int]bool
	unknown int64
}

func newTowerAudit(src trace.Source, towers []trace.TowerInfo) *towerAudit {
	known := make(map[int]bool, len(towers))
	for _, t := range towers {
		known[t.TowerID] = true
	}
	return &towerAudit{src: src, known: known}
}

func (a *towerAudit) NextBatch(dst []trace.Record) (int, error) {
	n, err := a.src.NextBatch(dst)
	for _, r := range dst[:n] {
		if !a.known[r.TowerID] {
			a.unknown++
		}
	}
	return n, err
}

// printSkipStats renders the ingestion drop accounting as the run footer.
func printSkipStats(s trace.SkipStats) {
	t := &report.Table{Title: "Ingestion skip stats", Headers: []string{"cause", "rows"}}
	t.AddRow("malformed CSV rows", s.MalformedRows)
	t.AddRow("bad timestamps", s.BadTimestamps)
	t.AddRow("bad fields", s.BadFields)
	t.AddRow("records from towers without metadata", s.UnknownTowers)
	t.AddRow("transient reads retried", s.IORetries)
	fmt.Println(t.String())
}

// loadMetadata reads the small per-city files: tower metadata and the POI
// inventory.
func loadMetadata(dir string) ([]trace.TowerInfo, []poi.POI, error) {
	towersFile, err := os.Open(filepath.Join(dir, "towers.csv"))
	if err != nil {
		return nil, nil, fmt.Errorf("opening towers.csv: %w", err)
	}
	defer towersFile.Close()
	towers, err := trace.ReadTowersCSV(bufio.NewReader(towersFile))
	if err != nil {
		return nil, nil, err
	}
	log.Printf("loaded %d towers", len(towers))

	poiFile, err := os.Open(filepath.Join(dir, "poi.csv"))
	if err != nil {
		return nil, nil, fmt.Errorf("opening poi.csv: %w", err)
	}
	defer poiFile.Close()
	pois, err := poi.ReadCSV(bufio.NewReader(poiFile))
	if err != nil {
		return nil, nil, err
	}
	log.Printf("loaded %d POIs", len(pois))
	return towers, pois, nil
}

// scanWindow streams the log once to find the time span of the valid
// records, returning the midnight-aligned start and the number of days
// covered. This first pass holds no records beyond one pooled batch:
// only the running min and max survive it.
func scanWindow(ctx context.Context, path string, ingestWorkers int, policy trace.ErrorPolicy) (time.Time, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return time.Time{}, 0, fmt.Errorf("opening logs.csv: %w", err)
	}
	defer f.Close()
	src, err := trace.NewIngestSourceContext(ctx, bufio.NewReaderSize(f, 1<<20), ingestWorkers, policy)
	if err != nil {
		return time.Time{}, 0, err
	}
	defer src.Close()
	var start, end time.Time
	n := 0
	err = trace.ForEachBatch(src, func(batch []trace.Record) error {
		for _, r := range batch {
			if n == 0 {
				start, end = r.Start, r.End
			} else {
				if r.Start.Before(start) {
					start = r.Start
				}
				if r.End.After(end) {
					end = r.End
				}
			}
			n++
		}
		return nil
	})
	if err != nil {
		return time.Time{}, 0, err
	}
	if n == 0 {
		return time.Time{}, 0, fmt.Errorf("no usable records in %s", path)
	}
	start = start.Truncate(24 * time.Hour)
	days := int(end.Sub(start).Hours()/24) + 1
	return start, days, nil
}

func logCleanStats(stats trace.CleanStats) {
	log.Printf("cleaning: %d in, %d invalid, %d duplicates, %d conflicts, %d forwarded",
		stats.Input, stats.Invalid, stats.Duplicates, stats.Conflicts, stats.Output)
}

func printResult(res *core.Result) {
	fmt.Printf("Identified %d traffic patterns (Davies-Bouldin optimum)\n\n", res.OptimalK)

	t1 := &report.Table{Title: "Table 1: cluster shares", Headers: []string{"cluster", "region", "towers", "share"}}
	for i, c := range res.Clusters {
		t1.AddRow(i+1, c.Region.String(), len(c.Members), c.Share)
	}
	fmt.Println(t1.String())

	t3 := &report.Table{Title: "Table 3: averaged normalised POI", Headers: []string{"region", "resident", "transport", "office", "entertainment"}}
	for _, c := range res.Clusters {
		t3.AddRow(c.Region.String(), c.AveragedPOI[poi.Resident], c.AveragedPOI[poi.Transport], c.AveragedPOI[poi.Office], c.AveragedPOI[poi.Entertainment])
	}
	fmt.Println(t3.String())

	if res.NMF != nil {
		tn := &report.Table{
			Title:   "NMF decomposition: towers dominated by each basis pattern",
			Headers: []string{"basis", "towers", "share"},
		}
		counts := make([]int, res.NMF.H.Rows)
		for _, b := range res.DominantBasis {
			counts[b]++
		}
		for b, c := range counts {
			tn.AddRow(b, c, float64(c)/float64(len(res.DominantBasis)))
		}
		fmt.Println(tn.String())
		stop := fmt.Sprintf("converged in %d iterations", res.NMF.Iterations)
		if !res.NMF.Converged {
			stop = fmt.Sprintf("stopped at its %d-iteration cap", res.NMF.Iterations)
		}
		fmt.Printf("NMF rank %d %s (relative error %.4f)\n\n", res.NMF.H.Rows, stop, res.NMF.RelativeError)
	}

	t45 := &report.Table{
		Title:   "Tables 4 & 5: time-domain characteristics (weekday)",
		Headers: []string{"region", "weekday/weekend ratio", "peak-valley ratio", "peak hour", "valley hour"},
	}
	for _, c := range res.Clusters {
		s := c.TimeSummary
		t45.AddRow(c.Region.String(), s.WeekdayWeekendRatio, s.Weekday.PeakValleyRatio, s.Weekday.PeakHour, s.Weekday.ValleyHour)
	}
	fmt.Println(t45.String())

	// Table 6 for a few comprehensive towers, when present.
	comp, err := res.ClusterByRegion(urban.Comprehensive)
	if err != nil || len(comp.Members) == 0 {
		return
	}
	t6 := &report.Table{
		Title:   "Table 6: convex combination coefficients of comprehensive towers",
		Headers: []string{"tower row", "resident", "transport", "office", "entertainment", "residual"},
	}
	n := 5
	if n > len(comp.Members) {
		n = len(comp.Members)
	}
	for i := 0; i < n; i++ {
		row := comp.Members[i*len(comp.Members)/n]
		dec, _, err := res.DecomposeTower(row)
		if err != nil {
			log.Printf("decomposing tower %d: %v", row, err)
			continue
		}
		t6.AddRow(row, dec.Coefficients[0], dec.Coefficients[1], dec.Coefficients[2], dec.Coefficients[3], dec.Residual)
	}
	fmt.Println(t6.String())
}
