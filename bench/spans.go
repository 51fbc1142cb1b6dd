package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir is where span files and snapshot probes are written, relative to
// the directory the benchmark is run from (the repository root).
const outDir = "bench/out"

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (the program itself carries no spans yet).
// Times are seconds since the tracer was created. Parent indexes the
// spans slice (-1 for a root). A probe span re-measures a piece of work
// that another span already covers (the distance kernel inside the
// clustering call, say), so it is left out of coverage sums.
type span struct {
	Name       string             `json:"name"`
	Start      float64            `json:"start"`
	End        float64            `json:"end"`
	Parent     int                `json:"parent"`
	Rep        int                `json:"rep"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Mallocs    uint64             `json:"mallocs"`
	Probe      bool               `json:"probe,omitempty"`
	Counts     map[string]float64 `json:"counts,omitempty"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// requestSpan is one driven-load request of serve-mixed. Times are
// seconds since the driven phase began; FirstByte is zero when the
// request never got a response.
type requestSpan struct {
	Due             float64 `json:"due"`
	Sent            float64 `json:"sent"`
	FirstByte       float64 `json:"first_byte"`
	Done            float64 `json:"done"`
	Endpoint        string  `json:"endpoint"`
	Status          int     `json:"status"`
	RemodelInFlight bool    `json:"remodel_in_flight"`
}

// tracer keeps spans in memory until the workload ends. It is used from
// one goroutine: the staged replays call the layers one after another, so
// a stack of open spans is enough to find each span's parent.
type tracer struct {
	origin   time.Time
	spans    []span
	open     []int
	rep      int
	requests []requestSpan
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// stage runs fn inside a span. The allocation counters are read outside
// the timed interval.
func (t *tracer) stage(name string, fn func() error) error {
	return t.record(name, false, fn)
}

// probe is stage for a measurement that duplicates work an enclosing or
// sibling span already accounts for.
func (t *tracer) probe(name string, fn func() error) error {
	return t.record(name, true, fn)
}

func (t *tracer) record(name string, probe bool, fn func() error) error {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Rep: t.rep, Probe: probe})
	t.open = append(t.open, id)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	end := time.Now()
	runtime.ReadMemStats(&after)
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.Start = start.Sub(t.origin).Seconds()
	s.End = end.Sub(t.origin).Seconds()
	s.AllocBytes = after.TotalAlloc - before.TotalAlloc
	s.Mallocs = after.Mallocs - before.Mallocs
	return err
}

// count attaches a count to the innermost open span.
func (t *tracer) count(key string, v float64) {
	if len(t.open) == 0 {
		return
	}
	s := &t.spans[t.open[len(t.open)-1]]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
}

// selfSeconds returns, per span, its duration minus the part its direct
// children cover. Children run one after another inside their parent, so
// the covered part is the plain sum of their durations.
func selfSeconds(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

// byName groups one per-span value (duration, self time, allocation) by
// span name, in span order: one entry per repetition for staged replays.
func byName(spans []span, value func(i int, s span) float64) map[string][]float64 {
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], value(i, s))
	}
	return out
}

// write stores the spans of one workload as bench/out/<workload>.trace.json.
func (t *tracer) write(workload string, seed int64) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, workload+".trace.json")
	data, err := json.Marshal(struct {
		Workload string        `json:"workload"`
		Seed     int64         `json:"seed"`
		Spans    []span        `json:"spans"`
		Requests []requestSpan `json:"requests,omitempty"`
	}{workload, seed, t.spans, t.requests})
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
