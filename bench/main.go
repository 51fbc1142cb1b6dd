// Command bench is the repository's benchmark: four workloads that time
// the CDR→model pipeline and the serve plane end to end, and a traced pass
// that times each layer from outside through its public API. BENCHMARK.json
// at the repository root declares the metric names; README.md in this
// directory defines them.
//
//	go run ./bench                      # every workload, both passes
//	go run ./bench -workload batch-model -trace 0
//	go run ./bench -mode traced         # per-layer pass only
//	go run ./bench -mode selfcheck      # two suites back to back, compared
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/linalg"
)

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the program needs: it prints exactly
// the metrics declared there, so the file stays the one list of names.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runOpts are the arguments of one pass over one workload.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
}

// report collects what one pass measured: operations attempted and failed
// (a repetition whose correctness check fails, a request that is refused,
// errors or returns an invalid body) and the metric values by name.
type report struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
	spreads           map[string]summary
	notes             []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, spreads: map[string]summary{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// sample reports a metric as the median of xs and keeps the spread for
// the printed table.
func (r *report) sample(name string, xs []float64) {
	s := summarize(xs)
	r.values[name] = s.Median
	r.spreads[name] = s
}

// op counts one attempted operation; a non-nil err counts it as failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err.Error())
	}
}

func (r *report) fail(msg string) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, msg)
	}
}

// ops counts a batch of operations (requests, cycles) of which failed
// failed; messages holds a sample of the failures' texts.
func (r *report) ops(attempted, failed int, messages []string) {
	r.attempted += attempted
	r.failed += failed
	r.failures = append(r.failures, messages[:min(len(messages), max(0, 10-len(r.failures)))]...)
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupRepeats is how often a pass builds its inputs: setup_s is the
// median, so one slow generation does not read as a set-up regression.
const setupRepeats = 3

// timeSetup runs build setupRepeats times and reports setup_s. build
// must drop what an earlier call produced before generating again.
func (r *report) timeSetup(opts runOpts, build func() error) error {
	n := setupRepeats
	if opts.traced {
		n = 1 // setup_s is an end-to-end metric: the traced pass does not report it
	}
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	if !opts.traced {
		r.sample("setup_s", secs)
	}
	return nil
}

// repTimes are the per-repetition wall times and allocation volumes of a
// timed region.
type repTimes struct {
	seconds, allocMB []float64
}

const minReps = 3

// timeReps runs op once as a discarded warm-up, then again until budget
// seconds of timed repetitions have run (and at least minReps of them).
// check runs after every repetition, outside the timed region; its error
// fails that repetition. An error from op itself aborts the pass.
func (r *report) timeReps(budget float64, op func() error, check func() error) (repTimes, error) {
	var out repTimes
	var spent float64
	for rep := -1; rep < minReps || spent < budget; rep++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := op(); err != nil {
			return out, err
		}
		secs := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		r.op(check())
		if rep < 0 {
			continue
		}
		spent += secs
		out.seconds = append(out.seconds, secs)
		out.allocMB = append(out.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	}
	return out, nil
}

// tracedReps is the repetition loop of a traced pass. After a discarded
// warm-up it alternates one end-to-end repetition (op, then check) with
// one staged replay of the same work (body inside a root span "replay",
// then after for that repetition's comparisons and probes), so that a
// drift in machine speed reaches both sides of every pair alike. Half the
// budget goes to each side. It returns the wall times of both, index by
// index.
func (r *report) tracedReps(budget float64, tr *tracer, op, check, body func() error, after func(rep int) error) (untraced, replays []float64, err error) {
	var spent float64
	for tr.rep = -1; tr.rep < minReps || spent < budget; tr.rep++ {
		runtime.GC()
		start := time.Now()
		if err := op(); err != nil {
			return nil, nil, err
		}
		secs := time.Since(start).Seconds()
		r.op(check())
		if tr.rep < 0 {
			continue
		}
		runtime.GC()
		id := len(tr.spans)
		if err := tr.stage("replay", body); err != nil {
			return nil, nil, err
		}
		if err := after(tr.rep); err != nil {
			return nil, nil, err
		}
		untraced = append(untraced, secs)
		replays = append(replays, tr.spans[id].seconds())
		spent += secs + tr.spans[id].seconds()
	}
	return untraced, replays, nil
}

// workload is one named set of inputs with its timed region.
type workload struct {
	name string
	run  func(ctx context.Context, opts runOpts, r *report) error
}

var workloads = []workload{
	{"batch-ingest", runBatchIngest},
	{"batch-model", runBatchModel},
	{"remodel-wide", runRemodelWide},
	{"serve-mixed", runServeMixed},
}

// runPass runs one pass of one workload and prints its table and result line.
func runPass(ctx context.Context, sp *spec, w workload, opts runOpts) (*report, error) {
	r := newReport()
	start := time.Now()
	if err := w.run(ctx, opts, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	pass, declared := "end-to-end", sp.EndToEnd
	if opts.traced {
		pass, declared = "traced", sp.PerLayer
	}
	fmt.Printf("== %s (%s pass, seed %d, %.1f s wall)\n", w.name, pass, opts.seed, time.Since(start).Seconds())
	if err := printResult(r, sp, declared); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, nil
}

// printResult prints every measured metric, the notes and failures, and
// as the last line the JSON object the driver reads, which carries exactly
// the metrics declared for this pass: one the pass did not measure (a
// layer the workload never enters) reads 0. The end-to-end pass of
// serve-mixed also measures the query plane, whose metrics are declared
// per-layer: they are printed but stay out of that pass's JSON. A measured
// name BENCHMARK.json does not declare at all is a bug in the benchmark.
func printResult(r *report, sp *spec, declared []metricSpec) error {
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]metricOut{}}
	for _, m := range declared {
		out.Metrics[m.Name] = metricOut{r.values[m.Name], m.Unit}
	}

	known := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		known[m.Name] = true
		v, measured := r.values[m.Name]
		if !measured {
			continue
		}
		line := fmt.Sprintf("  %-36s %14.6g %-6s", m.Name, v, m.Unit)
		if s, ok := r.spreads[m.Name]; ok {
			line += fmt.Sprintf("  min %.6g  q1 %.6g  q3 %.6g  n %d", s.Min, s.Q1, s.Q3, s.N)
		}
		fmt.Println(line)
	}
	var unknown []string
	for name := range r.values {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("measured metrics not declared in BENCHMARK.json: %s", strings.Join(unknown, ", "))
	}
	fmt.Printf("  %-36s %14.6g %-6s  (%d failed of %d attempted)\n", "failed_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	for _, f := range r.failures {
		fmt.Println("  FAILED:", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func run() error {
	var (
		name    = flag.String("workload", "all", "workload to run: batch-ingest, batch-model, remodel-wide, serve-mixed or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 0, "seconds of timed work per workload (0 = run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", -1, "1 runs only the traced (per-layer) pass, 0 only the end-to-end pass; default both")
		mode    = flag.String("mode", "run", "run, traced (same as -trace 1) or selfcheck")
	)
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	selected, err := selectWorkloads(*name)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var passes []bool // traced?
	switch {
	case *mode == "selfcheck":
		return selfcheck(ctx, sp, selected, *seed, *seconds)
	case *mode == "traced" || *trace == 1:
		passes = []bool{true}
	case *mode != "run":
		return fmt.Errorf("unknown mode %q", *mode)
	case *trace == 0:
		passes = []bool{false}
	default:
		passes = []bool{false, true}
	}
	fmt.Printf("bench: %s %s/%s, GOMAXPROCS %d, kernels: %s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), linalg.KernelDescription())
	failed := false
	for _, w := range selected {
		for _, traced := range passes {
			r, err := runPass(ctx, sp, w, runOpts{seed: *seed, seconds: *seconds, traced: traced})
			if err != nil {
				return err
			}
			failed = failed || r.failed > 0
		}
	}
	if failed {
		return errors.New("correctness checks failed")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
