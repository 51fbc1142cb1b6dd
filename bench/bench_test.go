package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func within(t *testing.T, what string, got, want, rel float64) {
	t.Helper()
	if math.Abs(got-want) > rel*math.Abs(want) {
		t.Errorf("%s = %g, want %g ± %.1f %%", what, got, want, rel*100)
	}
}

func TestSummarizeQuartiles(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Min != 1 || s.Q1 != 2 || s.Median != 3 || s.Q3 != 4 || s.Max != 5 {
		t.Errorf("summary %+v", s)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even-sized median = %g, want 2.5", got)
	}
	if (summarize(nil) != summary{}) {
		t.Error("empty sample should summarize to the zero value")
	}
}

// The histogram promises every percentile within 1 % of the exact value.
func TestHistogramPercentiles(t *testing.T) {
	var h histogram
	const n = 100_000
	for i := 1; i <= n; i++ {
		h.add(float64(i) * 1e-6) // 1 µs … 100 ms, uniform
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		within(t, "uniform quantile", h.quantile(q), q*n*1e-6, 0.01)
	}
	// A long tail: 990 fast samples and 10 slow ones.
	var tail histogram
	for i := 0; i < 990; i++ {
		tail.add(200e-6)
	}
	for i := 0; i < 10; i++ {
		tail.add(80e-3)
	}
	within(t, "p50", tail.quantile(0.5), 200e-6, 0.01)
	within(t, "p99", tail.quantile(0.99), 200e-6, 0.01)
	within(t, "p99.9", tail.quantile(0.999), 80e-3, 0.01)
	if tail.min != 200e-6 || tail.max != 80e-3 || tail.n != 1000 {
		t.Errorf("extremes: min %g max %g n %d", tail.min, tail.max, tail.n)
	}
	// Out-of-range values clamp into the end buckets, exact extremes kept.
	var wide histogram
	wide.add(1e-9)
	wide.add(500)
	if got := wide.quantile(1); got != 500 {
		t.Errorf("clamped max = %g, want 500", got)
	}
	if got := wide.quantile(0); got != 1e-9 {
		t.Errorf("clamped min = %g, want 1e-9", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both histogram
	for i := 1; i <= 1000; i++ {
		v := float64(i) * 1e-5
		both.add(v)
		if i%2 == 0 {
			a.add(v)
		} else {
			b.add(v)
		}
	}
	a.merge(&b)
	a.merge(&histogram{})
	if a.n != both.n || a.min != both.min || a.max != both.max || a.quantile(0.99) != both.quantile(0.99) {
		t.Errorf("merged histogram differs: n %d/%d p99 %g/%g", a.n, both.n, a.quantile(0.99), both.quantile(0.99))
	}
}

// query_p99_ms is the median over the slots of each slot's own p99, so one
// bad slot does not set it and an empty slot does not count.
func TestSlotMedian(t *testing.T) {
	slots := make([]*histogram, 6)
	for i := range slots {
		slots[i] = &histogram{}
	}
	for i, p99 := range []float64{1e-3, 2e-3, 3e-3, 4e-3, 500e-3} { // slot 5 stays empty
		for j := 0; j < 980; j++ {
			slots[i].add(100e-6)
		}
		for j := 0; j < 20; j++ {
			slots[i].add(p99)
		}
	}
	within(t, "median of slot p99s", slotMedian(slots, 0.99), 3e-3, 0.01)
	within(t, "median of slot p50s", slotMedian(slots, 0.50), 100e-6, 0.01)
	if got := slotMedian(slots[5:], 0.99); got != 0 {
		t.Errorf("no samples at all: %g, want 0", got)
	}
}

func TestBuildSchedule(t *testing.T) {
	towers := []int{7, 8, 9}
	sched := buildSchedule(rand.New(rand.NewSource(3)), 1000, 4, towers)
	again := buildSchedule(rand.New(rand.NewSource(3)), 1000, 4, towers)
	if len(sched) != 4000 {
		t.Fatalf("%d requests, want 4000", len(sched))
	}
	var mix [numEndpoints]int
	for i, q := range sched {
		if q != again[i] {
			t.Fatalf("request %d differs between two builds from one seed", i)
		}
		if q.due != time.Duration(i)*time.Millisecond {
			t.Fatalf("request %d due at %v, want %v", i, q.due, time.Duration(i)*time.Millisecond)
		}
		if q.tower < 7 || q.tower > 9 {
			t.Fatalf("request %d asks for tower %d, not in the listing", i, q.tower)
		}
		mix[q.endpoint]++
	}
	for ep, want := range [numEndpoints]float64{0.80, 0.10, 0.05, 0.05} {
		within(t, endpointNames[ep]+" share", float64(mix[ep])/4000, want, 0.25)
	}
}

// An open loop keeps its schedule when the server stalls: every request is
// still sent, and the ones that came due during the stall are charged the
// wait, because latency runs from the due time and not from the send.
func TestOpenLoopKeepsScheduleThroughStall(t *testing.T) {
	const (
		n     = 100
		gap   = 2 * time.Millisecond
		stall = 100 * time.Millisecond
	)
	sched := make([]request, n)
	for i := range sched {
		sched[i] = request{due: time.Duration(i) * gap, tower: i}
	}
	// Two generators; the fake server stalls once, on request 10 (generator 0).
	var sendLatencies [2][]time.Duration
	doers := make([]doer, 2)
	for g := range doers {
		doers[g] = func(q request) outcome {
			start := time.Now()
			if q.tower == 10 {
				time.Sleep(stall)
			}
			sendLatencies[g] = append(sendLatencies[g], time.Since(start))
			return outcome{status: 200}
		}
	}
	start := time.Now()
	stats := driveOpenLoop(sched, 1, start, doers, nil, true)
	elapsed := time.Since(start)

	if stats.sent != n || stats.failed != 0 || len(stats.spans) != n {
		t.Fatalf("sent %d (spans %d, failed %d), want all %d", stats.sent, len(stats.spans), stats.failed, n)
	}
	if elapsed < time.Duration(n-1)*gap || elapsed > time.Duration(n)*gap+stall {
		t.Errorf("run took %v: the schedule spans %v", elapsed, time.Duration(n)*gap)
	}
	// Generator 0 sends every other request, 4 ms apart: about 25 of its
	// requests come due during the 100 ms stall and each must show it.
	slowFromDue := 0
	for _, sp := range stats.spans {
		if sp.Done-sp.Due > 0.010 {
			slowFromDue++
		}
	}
	if slowFromDue < 15 || slowFromDue > 35 {
		t.Errorf("%d requests slower than 10 ms from their due time, want about 25", slowFromDue)
	}
	slowFromSend := 0
	for _, l := range append(sendLatencies[0], sendLatencies[1]...) {
		if l > 10*time.Millisecond {
			slowFromSend++
		}
	}
	if slowFromSend != 1 {
		t.Errorf("%d requests slow from their send time, want only the stalled one", slowFromSend)
	}
	// The stall is the server's: it shows in the latencies above, not in
	// the generator's own lateness, which covers only requests that the
	// generator was free to send on time.
	if stats.backlogged < 15 || stats.backlogged > 35 || int(stats.late.n)+stats.backlogged != n {
		t.Errorf("%d requests backlogged and %d on time, want about 25 of %d backlogged", stats.backlogged, stats.late.n, n)
	}
	if late := stats.late.quantile(1); late > 0.050 {
		t.Errorf("generator's own lateness up to %.3f s although it was free to send on time", late)
	}
	within(t, "worst latency from due", stats.all.quantile(1), stall.Seconds(), 0.15)
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 4, Parent: 0},
		{Name: "b", Start: 4, End: 8, Parent: 0},
		{Name: "b.inner", Start: 5, End: 6, Parent: 2},
		{Name: "other-root", Start: 10, End: 12, Parent: -1},
	}
	want := []float64{3, 3, 3, 1, 2}
	for i, got := range selfSeconds(spans) {
		if math.Abs(got-want[i]) > 1e-12 {
			t.Errorf("self time of %s = %g, want %g", spans[i].Name, got, want[i])
		}
	}
}

func TestTracerParentsAndCoverage(t *testing.T) {
	tr := newTracer()
	nop := func() error { return nil }
	err := tr.stage("replay", func() error {
		if err := tr.stage("x.first", nop); err != nil {
			return err
		}
		return tr.stage("x.second", func() error {
			tr.count("records", 42)
			return tr.probe("x.inner", nop)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.probe("x.after", nop); err != nil {
		t.Fatal(err)
	}
	parents := map[string]int{}
	for _, s := range tr.spans {
		parents[s.Name] = s.Parent
	}
	if parents["replay"] != -1 || parents["x.first"] != 0 || parents["x.second"] != 0 || parents["x.inner"] != 2 || parents["x.after"] != -1 {
		t.Errorf("parents %v", parents)
	}
	if tr.spans[2].Counts["records"] != 42 {
		t.Errorf("count landed on %+v", tr.spans)
	}

	// Coverage counts the stages inside the replay, not probes and not the
	// replay's own overhead; overhead compares the whole replay.
	tr.spans = []span{
		{Name: "replay", Start: 0, End: 10, Parent: -1},
		{Name: "x.first", Start: 0, End: 4, Parent: 0},
		{Name: "x.second", Start: 4, End: 9, Parent: 0},
		{Name: "x.probe", Start: 9, End: 10, Parent: 0, Probe: true},
	}
	r := newReport()
	layerMetrics(r, tr, []float64{10, 10, 10}, []float64{10})
	within(t, "trace_coverage", r.values["trace_coverage"], 0.9, 1e-9)
	within(t, "trace_overhead_ratio", r.values["trace_overhead_ratio"], 1.0, 1e-9)
	within(t, "x.second_s", r.values["x.second_s"], 5, 1e-9)
}
