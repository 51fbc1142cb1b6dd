package trace_test

// digest_test.go pins the scanner's output to digests computed by the
// row-at-a-time parser (readRow → parseRowFast/parseRowSlow → toRecord)
// before the fused canonical-row path existed. The constants were taken
// once from that parser and are never regenerated: a scanner change that
// moves one record field, one skip count or one error position fails here.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// Digests of every record field plus the skip stats, per input.
const (
	digestTowerMajor = "a4bfcf0d807066c74e243291c0d8c0026be71de984338a0f3439aae8e030688b"
	digestTimeMajor  = "9b99abbac9991da06a956e73f1d01842d1e849d9ab961467ac30363a21667e7a"
	digestBadRows    = "07ea8041da5d6eeb071f7e824c79c6c152bcbc96e8d315548f51f24d95cecba8"
)

// The first malformed row of the bad-rows input, as a fail-fast reader
// reports it, and the digest of the 20 006 records it delivers first.
const (
	failFastLine   = 20010
	failFastOffset = 2413778
	failFastDigest = "48cc79e6d959371ecf5d9dc6c571a0909244cd91ba654267603f19e31b69ea00"
)

// What a budget of badRowsBudget skipped rows delivers before it runs
// out. The serial Scanner stops at the fifth bad row; the parallel
// source applies the budget once per parsed chunk, so it stops at the end
// of the chunk that holds that row.
const (
	badRowsBudget        = 4
	budgetSerialDigest   = "3b427b1176366e1e89f61d9c9174678cc07d9eb0021f0f7761cec34a2d9c5444"
	budgetSerialError    = "trace: ingestion error budget exceeded: 5 of 24011 rows dropped (malformed=2 bad_timestamp=1 bad_field=2 unknown_tower=0 io_retries=0)"
	budgetParallelDigest = "50e60cfd255abb66d3c39be3a22b307d5833c0f53171fa468bf5c39326e39e0b"
	budgetParallelError  = "trace: ingestion error budget exceeded: 7 of 26061 rows dropped (malformed=2 bad_timestamp=1 bad_field=4 unknown_tower=0 io_retries=0)"
)

var (
	digestInputsOnce sync.Once
	towerMajorCSV    []byte
	timeMajorCSV     []byte
	digestInputsErr  error
)

// digestInputs renders one synthetic city's CDR log as CSV in both
// orders: 24 towers over a week, duplicates and conflicts injected, every
// address quoted (they contain commas).
func digestInputs(t *testing.T) (towerMajor, timeMajor []byte) {
	t.Helper()
	digestInputsOnce.Do(func() {
		cfg := synth.DefaultConfig()
		cfg.Towers = 24
		cfg.Users = 300
		cfg.Days = 7
		city, err := synth.GenerateCity(cfg)
		if err != nil {
			digestInputsErr = err
			return
		}
		series, err := city.GenerateSeries()
		if err != nil {
			digestInputsErr = err
			return
		}
		render := func(opts synth.LogOptions) []byte {
			var buf bytes.Buffer
			cw := trace.NewCSVWriter(&buf)
			if err := trace.ForEachBatch(city.LogSource(series, opts), cw.WriteBatch); err != nil {
				digestInputsErr = err
			}
			if err := cw.Flush(); err != nil {
				digestInputsErr = err
			}
			return buf.Bytes()
		}
		towerMajorCSV = render(synth.LogOptions{})
		timeMajorCSV = render(synth.LogOptions{TimeMajor: true})
	})
	if digestInputsErr != nil {
		t.Fatal(digestInputsErr)
	}
	return towerMajorCSV, timeMajorCSV
}

// badRowsInput is the time-major log with rows inserted after fixed
// physical lines: first a group the scanner accepts although none is in
// the canonical shape, then one malformed or invalid row at each later
// position, and a final row with no newline.
func badRowsInput(timeMajor []byte) []byte {
	inserts := map[int][]string{
		1000: {
			"1234567890123456789,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE", // 19 digits
			"007,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,0007,addr,00100,3G",             // leading zeros
			"2,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,\"say \"\"hi\"\"\",100,LTE",     // "" escape
			"3,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,\"a,b\",100,3G\r",               // CRLF
			"4,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,\"two\nlines\",100,LTE",         // multi-line
			"",
			"5,2014-08-01T08:00:00+08:00,2014-08-01T08:05:00.5Z,7,addr,100,LTE", // non-canonical times
			"6,2014-08-01T08:00:00Z,2014-08-01T08:00:00Z,7,,0,LTE",              // empty address
		},
		20000: {"12a,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE"},
		21000: {"1,2014-13-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE"},
		22000: {"1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,ba\"re,100,LTE"},
		23000: {"1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100"},
		24000: {"1,2014-08-01T08:05:00Z,2014-08-01T08:00:00Z,7,addr,100,LTE"}, // end before start
		25000: {"1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,lte"},
		26000: {"1,0001-01-01T00:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE"},
		27000: {"1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,\"addr\"x,100,LTE"},
		28000: {"12345678901234567890,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE"},
	}
	lines := strings.SplitAfter(string(timeMajor), "\n")
	var b strings.Builder
	for i, l := range lines {
		b.WriteString(l)
		for _, row := range inserts[i+1] {
			b.WriteString(row + "\n")
		}
	}
	b.WriteString("1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE") // no trailing newline
	return []byte(b.String())
}

// digest is the SHA-256 over every field of every record, in order
// (UserID, Start and End in Unix nanoseconds, TowerID, the Address length
// and bytes, Bytes, the Tech length and bytes, integers little-endian
// uint64s), followed by the five SkipStats counters.
func digest(recs []trace.Record, stats trace.SkipStats) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, r := range recs {
		put(uint64(r.UserID))
		put(uint64(r.Start.UnixNano()))
		put(uint64(r.End.UnixNano()))
		put(uint64(r.TowerID))
		put(uint64(len(r.Address)))
		h.Write([]byte(r.Address))
		put(uint64(r.Bytes))
		put(uint64(len(r.Tech)))
		h.Write([]byte(r.Tech))
	}
	for _, x := range []int64{stats.MalformedRows, stats.BadTimestamps, stats.BadFields, stats.UnknownTowers, stats.IORetries} {
		put(uint64(x))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// skipReaders are the skip-policy ingestion paths every input goes
// through: the serial Scanner and the parallel source at 1, 2 and 4
// workers.
var skipReaders = []struct {
	name string
	open func(data []byte) (trace.IngestSource, error)
}{
	{"Scanner", func(data []byte) (trace.IngestSource, error) { return trace.NewScanner(bytes.NewReader(data)) }},
	{"parallel-1", parallel(1)},
	{"parallel-2", parallel(2)},
	{"parallel-4", parallel(4)},
}

func parallel(workers int) func([]byte) (trace.IngestSource, error) {
	return func(data []byte) (trace.IngestSource, error) {
		return trace.NewParallelCSVSource(bytes.NewReader(data), workers)
	}
}

// drain reads src to its end in odd-sized batches and returns what it
// delivered and its terminal error (nil at io.EOF).
func drain(t *testing.T, src trace.IngestSource) ([]trace.Record, error) {
	t.Helper()
	defer src.Close()
	var recs []trace.Record
	batch := make([]trace.Record, 333)
	for {
		n, err := src.NextBatch(batch)
		recs = append(recs, batch[:n]...)
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
	}
}

func TestScanMatchesParentDigest(t *testing.T) {
	towerMajor, timeMajor := digestInputs(t)
	bad := badRowsInput(timeMajor)
	inputs := []struct {
		name string
		data []byte
		want string
	}{
		{"tower-major", towerMajor, digestTowerMajor},
		{"time-major", timeMajor, digestTimeMajor},
		{"bad-rows", bad, digestBadRows},
	}
	for _, rd := range skipReaders {
		for _, in := range inputs {
			t.Run(rd.name+"/"+in.name, func(t *testing.T) {
				src, err := rd.open(in.data)
				if err != nil {
					t.Fatal(err)
				}
				recs, err := drain(t, src)
				if err != nil {
					t.Fatal(err)
				}
				if got := digest(recs, src.Stats()); got != in.want {
					t.Errorf("%d records, stats %+v: digest %s, want %s", len(recs), src.Stats(), got, in.want)
				}
			})
		}
	}

	// The policies through NewIngestSourceContext: one worker is the
	// serial Scanner, more are the parallel source.
	open := func(t *testing.T, workers int, policy trace.ErrorPolicy) trace.IngestSource {
		src, err := trace.NewIngestSourceContext(context.Background(), bytes.NewReader(bad), workers, policy)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("fail-fast/workers-%d", workers), func(t *testing.T) {
			recs, err := drain(t, open(t, workers, trace.ErrorPolicy{Mode: trace.PolicyFailFast}))
			var pe *trace.PosError
			if !errors.As(err, &pe) || !errors.Is(err, trace.ErrRowRejected) {
				t.Fatalf("terminal error %v, want a positioned row rejection", err)
			}
			if pe.Line != failFastLine || pe.Offset != failFastOffset {
				t.Errorf("rejected row at line %d, offset %d; want line %d, offset %d", pe.Line, pe.Offset, failFastLine, failFastOffset)
			}
			if got := digest(recs, trace.SkipStats{}); got != failFastDigest {
				t.Errorf("%d records before the rejection: digest %s, want %s", len(recs), got, failFastDigest)
			}
		})
		t.Run(fmt.Sprintf("budget/workers-%d", workers), func(t *testing.T) {
			wantDigest, wantErr := budgetSerialDigest, budgetSerialError
			if workers > 1 {
				wantDigest, wantErr = budgetParallelDigest, budgetParallelError
			}
			recs, err := drain(t, open(t, workers, trace.ErrorPolicy{Mode: trace.PolicyBudget, Budget: trace.Budget{MaxRows: badRowsBudget}}))
			if !errors.Is(err, trace.ErrBudgetExceeded) || err.Error() != wantErr {
				t.Fatalf("terminal error %q, want %q", err, wantErr)
			}
			if got := digest(recs, trace.SkipStats{}); got != wantDigest {
				t.Errorf("%d records before the budget ran out: digest %s, want %s", len(recs), got, wantDigest)
			}
		})
	}
}
