package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// policyTrace builds a CSV stream of nGood valid records with a garbage
// row after every badEvery good rows.
func policyTrace(t testing.TB, nGood, badEvery int) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	recs := make([]Record, nGood)
	for i := range recs {
		r := validRecord()
		r.UserID = i
		r.TowerID = i % 8
		recs[i] = r
	}
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if badEvery <= 0 {
		return buf.String(), 0
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	var out strings.Builder
	bad := 0
	for i, ln := range lines {
		out.WriteString(ln)
		if i > 0 && ln != "" && i%badEvery == 0 {
			out.WriteString("not,a,valid,row\n")
			bad++
		}
	}
	return out.String(), bad
}

// TestIOErrorCarriesPosition pins the satellite contract: an I/O failure
// mid-stream is wrapped with the line number and byte offset at which it
// happened, and the position text appears in the error string for every
// ingestion path.
func TestIOErrorCarriesPosition(t *testing.T) {
	data, _ := policyTrace(t, 50, 0)
	broken := errors.New("read: connection reset")
	paths := []struct {
		name string
		run  func() error
	}{
		{"CSVReader", func() error {
			cr, err := NewCSVReader(&flakyReader{payload: strings.NewReader(data), err: broken})
			if err != nil {
				return err
			}
			_, err = Collect(SourceFunc(cr.Next))
			return err
		}},
		{"Scanner", func() error {
			sc, err := NewScanner(&flakyReader{payload: strings.NewReader(data), err: broken})
			if err != nil {
				return err
			}
			_, err = Collect(sc)
			return err
		}},
		{"ParallelCSVSource", func() error {
			src, err := NewParallelCSVSource(&flakyReader{payload: strings.NewReader(data), err: broken}, 4)
			if err != nil {
				return err
			}
			defer src.Close()
			_, err = Collect(src)
			return err
		}},
	}
	for _, tc := range paths {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if !errors.Is(err, broken) {
				t.Fatalf("underlying cause lost: %v", err)
			}
			var pos *PosError
			if !errors.As(err, &pos) {
				t.Fatalf("no PosError in chain: %v", err)
			}
			msg := err.Error()
			if !strings.Contains(msg, "line ") || !strings.Contains(msg, "byte offset ") {
				t.Fatalf("position missing from error string: %q", msg)
			}
			// The full payload was delivered before the fault, so the
			// position must be past the header, near the end of the data.
			if pos.Line < 2 || pos.Offset < int64(len(data)/2) {
				t.Fatalf("implausible position line=%d offset=%d (stream is %d bytes)", pos.Line, pos.Offset, len(data))
			}
		})
	}
}

// TestFailFastPositionExact pins the exact line/offset of the row a
// fail-fast policy rejects, on both the serial and parallel paths.
func TestFailFastPositionExact(t *testing.T) {
	data, _ := policyTrace(t, 20, 5) // first garbage row after 5 records = line 7
	wantLine := int64(7)
	wantOffset := int64(len(csvHeaderLine))
	for _, ln := range strings.SplitAfter(data, "\n")[1:6] {
		wantOffset += int64(len(ln))
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			testutil.CheckNoGoroutineLeak(t)
			src, err := NewIngestSourceContext(context.Background(), strings.NewReader(data), workers,
				ErrorPolicy{Mode: PolicyFailFast})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			_, err = Collect(src)
			if !errors.Is(err, ErrRowRejected) {
				t.Fatalf("want ErrRowRejected, got %v", err)
			}
			var pos *PosError
			if !errors.As(err, &pos) {
				t.Fatalf("no position: %v", err)
			}
			if pos.Line != wantLine || pos.Offset != wantOffset {
				t.Fatalf("rejected row at line=%d offset=%d, want line=%d offset=%d",
					pos.Line, pos.Offset, wantLine, wantOffset)
			}
		})
	}
}

// TestBudgetPolicySerialExact asserts the serial scanner enforces the
// row budget exactly: it aborts on the first skip beyond MaxRows.
func TestBudgetPolicySerialExact(t *testing.T) {
	data, bad := policyTrace(t, 100, 10)
	if bad < 5 {
		t.Fatalf("generator made only %d bad rows", bad)
	}
	sc, err := NewScannerPolicy(strings.NewReader(data), ErrorPolicy{
		Mode:   PolicyBudget,
		Budget: Budget{MaxRows: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Collect(sc)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if got := sc.Stats().SkippedRows(); got != 4 {
		t.Fatalf("aborted after %d skips, want exactly MaxRows+1 = 4", got)
	}
}

// TestSkipStatsCategories asserts each malformation lands in its own
// counter, identically across all three ingestion paths.
func TestSkipStatsCategories(t *testing.T) {
	rows := csvHeaderLine +
		"1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE\n" + // good
		"not a csv row at all\"\n" + // malformed (bare quote breaks structure)
		"x,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE\n" + // bad field (user id)
		"2,BADTIME,2014-08-01T08:05:00Z,7,addr,100,LTE\n" + // bad timestamp
		"3,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,-5,LTE\n" + // bad field (bytes validate)
		"4,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE\n" // good
	want := SkipStats{MalformedRows: 1, BadTimestamps: 1, BadFields: 2}

	mk := map[string]func() (interface {
		Stats() SkipStats
	}, []Record, error){
		"Scanner": func() (interface{ Stats() SkipStats }, []Record, error) {
			sc, err := NewScanner(strings.NewReader(rows))
			if err != nil {
				return nil, nil, err
			}
			recs, err := Collect(sc)
			return sc, recs, err
		},
		"CSVReader": func() (interface{ Stats() SkipStats }, []Record, error) {
			cr, err := NewCSVReader(strings.NewReader(rows))
			if err != nil {
				return nil, nil, err
			}
			recs, err := Collect(SourceFunc(cr.Next))
			return cr, recs, err
		},
		"Parallel": func() (interface{ Stats() SkipStats }, []Record, error) {
			src, err := NewParallelCSVSource(strings.NewReader(rows), 3)
			if err != nil {
				return nil, nil, err
			}
			recs, err := Collect(src)
			return src, recs, err
		},
	}
	for name, run := range mk {
		t.Run(name, func(t *testing.T) {
			st, recs, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 {
				t.Fatalf("parsed %d records, want 2", len(recs))
			}
			if got := st.Stats(); got != want {
				t.Fatalf("stats %+v, want %+v", got, want)
			}
		})
	}
}

// transientReader fails every read with a retryable error until armed
// reads run out, then delegates. It counts the faults it injected.
type transientReader struct {
	r      io.Reader
	faults int
	fired  int
}

type tempErr struct{}

func (tempErr) Error() string   { return "transient: try again" }
func (tempErr) Temporary() bool { return true }

func (tr *transientReader) Read(p []byte) (int, error) {
	if tr.fired < tr.faults {
		tr.fired++
		return 0, tempErr{}
	}
	return tr.r.Read(p)
}

// TestRetryReaderAbsorbsTransients asserts bounded retry-with-backoff
// hides retryable faults from the consumer and counts them.
func TestRetryReaderAbsorbsTransients(t *testing.T) {
	data, _ := policyTrace(t, 10, 0)
	rr := NewRetryReader(context.Background(), &transientReader{r: strings.NewReader(data), faults: 3},
		RetryPolicy{MaxAttempts: 5, Backoff: time.Microsecond})
	got, err := io.ReadAll(rr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != data {
		t.Fatal("retried stream differs from original")
	}
	if rr.Retries() != 3 {
		t.Fatalf("Retries() = %d, want 3", rr.Retries())
	}

	// Exhausted budget: the transient error surfaces.
	rr = NewRetryReader(context.Background(), &transientReader{r: strings.NewReader(data), faults: 100},
		RetryPolicy{MaxAttempts: 4, Backoff: time.Microsecond})
	if _, err := io.ReadAll(rr); err == nil || !IsTransient(err) {
		t.Fatalf("exhausted retries should surface the transient cause, got %v", err)
	}
}

// TestRetryStatsFlowIntoIngest asserts absorbed retries appear in the
// ingestion source's SkipStats as IORetries.
func TestRetryStatsFlowIntoIngest(t *testing.T) {
	data, _ := policyTrace(t, 200, 0)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			testutil.CheckNoGoroutineLeak(t)
			src, err := NewIngestSourceContext(context.Background(),
				&transientReader{r: strings.NewReader(data), faults: 2}, workers,
				ErrorPolicy{Retry: RetryPolicy{MaxAttempts: 5, Backoff: time.Microsecond}})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			recs, err := Collect(src)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 200 {
				t.Fatalf("parsed %d records, want 200", len(recs))
			}
			if got := src.Stats().IORetries; got != 2 {
				t.Fatalf("IORetries = %d, want 2", got)
			}
		})
	}
}

// TestParallelCancellationProperty cancels the parallel CSV source at
// randomized points mid-stream and asserts the property the tentpole
// demands: the call unwinds promptly with ctx.Err(), the records
// delivered before cancellation are an exact prefix of the serial
// baseline (no partial-result corruption), and nothing leaks.
func TestParallelCancellationProperty(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	data, _ := policyTrace(t, 4000, 0)
	baseSC, err := NewScanner(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Collect(baseSC)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		workers := 2 + rng.Intn(3)
		cancelAt := rng.Intn(len(baseline))
		ctx, cancel := context.WithCancel(context.Background())
		src, err := newParallelCSVSourceOpts(ctx, strings.NewReader(data), workers, 1<<10, ErrorPolicy{})
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		var got []Record
		buf := make([]Record, 100)
		var terminal error
		for {
			n, err := src.NextBatch(buf)
			got = append(got, buf[:n]...)
			if len(got) >= cancelAt && terminal == nil && err == nil {
				cancel()
			}
			if err != nil {
				terminal = err
				break
			}
		}
		src.Close()
		cancel()
		if !errors.Is(terminal, io.EOF) && !errors.Is(terminal, context.Canceled) {
			t.Fatalf("trial %d: terminal error %v", trial, terminal)
		}
		if len(got) > len(baseline) {
			t.Fatalf("trial %d: delivered %d records, baseline has %d", trial, len(got), len(baseline))
		}
		for i := range got {
			if got[i] != baseline[i] {
				t.Fatalf("trial %d: record %d diverges from the serial prefix", trial, i)
			}
		}
	}
}

// TestCtxSourceCancellation asserts WithContext latches cancellation for
// one-record and full-batch reads alike.
func TestCtxSourceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var served atomic.Int64
	src := WithContext(ctx, SourceFunc(func() (Record, error) {
		served.Add(1)
		return validRecord(), nil
	}))
	if _, err := next(src); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := next(src); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Sticky: still cancelled for a wider batch.
	if _, err := src.NextBatch(make([]Record, 4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch read after cancel: %v", err)
	}
	if served.Load() != 1 {
		t.Fatalf("cancelled source kept pulling: served %d", served.Load())
	}
}
