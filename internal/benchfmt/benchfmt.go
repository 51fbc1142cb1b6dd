// Package benchfmt parses `go test -bench` output: one entry per benchmark
// with its name, iteration count and a metric map keyed by unit.
// cmd/benchcmp diffs two parsed runs and gates CI on regressions.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Entry is one benchmark result.
type Entry struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string
	// Iterations is the b.N the reported values were averaged over.
	Iterations int64
	// Metrics maps a unit (ns/op, MB/s, records/s, allocs/op, ...) to its
	// reported value.
	Metrics map[string]float64
}

// Document is one parsed benchmark run.
type Document struct {
	// Benchmarks holds every selected benchmark in input order.
	Benchmarks []Entry
}

// Lookup returns the entry named name, or nil.
func (d *Document) Lookup(name string) *Entry {
	for i := range d.Benchmarks {
		if d.Benchmarks[i].Name == name {
			return &d.Benchmarks[i]
		}
	}
	return nil
}

// gomaxprocsSuffix strips the trailing -N the testing package appends to
// benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse scans benchmark lines out of r, keeping only names matching sel
// (nil keeps all). The format is fixed by the testing package: name,
// iteration count, then value/unit pairs separated by whitespace;
// non-benchmark lines are ignored so a full `go test` transcript parses.
func Parse(r io.Reader, sel *regexp.Regexp) (*Document, error) {
	doc := &Document{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		if sel != nil && !sel.MatchString(name) {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a log line that happens to start with Benchmark
		}
		entry := Entry{Name: name, Iterations: iters, Metrics: make(map[string]float64)}
		for i := 2; i+1 < len(fields); i += 2 {
			value, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			entry.Metrics[fields[i+1]] = value
		}
		doc.Benchmarks = append(doc.Benchmarks, entry)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}
