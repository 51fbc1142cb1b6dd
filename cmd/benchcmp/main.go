// Command benchcmp diffs two raw `go test -bench` outputs and fails when the
// new run regresses: more than -max-ns-regress percent on ns/op, or *any*
// growth in allocs/op, on the benchmarks present in both. CI runs it against
// a same-machine baseline built from the merge base, so the ingestion, FFT,
// distance-kernel and full-analysis numbers cannot silently rot.
//
// Usage:
//
//	go run ./cmd/benchcmp -old base.txt -new head.txt -max-ns-regress 10
//
// Benchmarks present in only one output are reported but never fail the
// gate (they are new or retired, not regressed).
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"regexp"
	"strings"

	"repro/internal/benchfmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcmp: ")
	var (
		oldPath  = flag.String("old", "", "baseline go test -bench output")
		newPath  = flag.String("new", "", "candidate go test -bench output")
		maxNs    = flag.Float64("max-ns-regress", 15, "fail when ns/op grows by more than this percentage")
		filter   = flag.String("select", "", "regexp restricting the compared benchmark names (default all)")
		minIters = flag.Int64("min-iters", 1, "skip benchmarks with fewer baseline or candidate iterations (single-shot runs are too noisy to gate on)")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		log.Fatal("both -old and -new are required")
	}
	var sel *regexp.Regexp
	if *filter != "" {
		var err error
		if sel, err = regexp.Compile(*filter); err != nil {
			log.Fatalf("bad -select: %v", err)
		}
	}

	oldDoc, err := load(*oldPath, sel)
	if err != nil {
		log.Fatal(err)
	}
	newDoc, err := load(*newPath, sel)
	if err != nil {
		log.Fatal(err)
	}

	failures := 0
	compared := 0
	for _, ne := range newDoc.Benchmarks {
		oe := oldDoc.Lookup(ne.Name)
		if oe == nil {
			fmt.Printf("  new   %-60s (no baseline)\n", ne.Name)
			continue
		}
		if oe.Iterations < *minIters || ne.Iterations < *minIters {
			fmt.Printf("  skip  %-60s (%d vs %d iterations, below -min-iters %d)\n", ne.Name, oe.Iterations, ne.Iterations, *minIters)
			continue
		}
		compared++
		status := "ok"
		var notes []string
		if oldNs, newNs := oe.Metrics["ns/op"], ne.Metrics["ns/op"]; oldNs > 0 {
			delta := (newNs - oldNs) / oldNs * 100
			notes = append(notes, fmt.Sprintf("ns/op %+.1f%%", delta))
			if delta > *maxNs {
				status = "FAIL"
				failures++
				notes[len(notes)-1] += fmt.Sprintf(" (limit +%g%%)", *maxNs)
			}
		}
		oldAllocs, haveOld := oe.Metrics["allocs/op"]
		newAllocs, haveNew := ne.Metrics["allocs/op"]
		if haveOld && haveNew {
			notes = append(notes, fmt.Sprintf("allocs/op %g -> %g", oldAllocs, newAllocs))
			if newAllocs > oldAllocs && !closeEnough(newAllocs, oldAllocs) {
				status = "FAIL"
				failures++
				notes[len(notes)-1] += " (any growth fails)"
			}
		}
		fmt.Printf("  %-5s %-60s %s\n", status, ne.Name, strings.Join(notes, ", "))
	}
	for _, oe := range oldDoc.Benchmarks {
		if newDoc.Lookup(oe.Name) == nil {
			fmt.Printf("  gone  %-60s (in baseline only)\n", oe.Name)
		}
	}
	if compared == 0 {
		log.Fatal("no benchmarks in common between the two snapshots")
	}
	if failures > 0 {
		log.Fatalf("%d regression(s) across %d compared benchmarks", failures, compared)
	}
	fmt.Printf("benchcmp: %d benchmarks compared, no regressions\n", compared)
}

// closeEnough absorbs float formatting jitter in allocs/op (the testing
// package reports a truncated mean, so a stable benchmark can flicker by a
// fraction of an alloc between runs).
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) < 0.5
}

// load parses the raw `go test -bench` output at path.
func load(path string, sel *regexp.Regexp) (*benchfmt.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return benchfmt.Parse(f, sel)
}
