package benchfmt

import (
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
BenchmarkIngest_Serial-4         	       3	 355644526 ns/op	  5623968 records/s	       5 B/op	       0 allocs/op
BenchmarkDSP_FFTPaperLength 	   26372	     87165 ns/op	       0 B/op	       0 allocs/op
some log line
BenchmarkPipeline_FullAnalysis/float32-4         	       2	 431078105 ns/op	29353788 B/op	   56691 allocs/op
PASS
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	e := doc.Lookup("BenchmarkIngest_Serial")
	if e == nil {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if e.Iterations != 3 || e.Metrics["ns/op"] != 355644526 || e.Metrics["records/s"] != 5623968 {
		t.Errorf("bad entry: %+v", e)
	}
	if got := doc.Lookup("BenchmarkPipeline_FullAnalysis/float32"); got == nil || got.Metrics["allocs/op"] != 56691 {
		t.Errorf("sub-benchmark entry wrong: %+v", got)
	}
	if doc.Lookup("BenchmarkMissing") != nil {
		t.Error("Lookup invented an entry")
	}
}

func TestParseSelect(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample), regexp.MustCompile(`DSP_FFT`))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].Name != "BenchmarkDSP_FFTPaperLength" {
		t.Fatalf("selection kept %+v", doc.Benchmarks)
	}
}

func TestParseBadValue(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX 2 abc ns/op\n"), nil); err == nil {
		t.Fatal("malformed metric value accepted")
	}
}
