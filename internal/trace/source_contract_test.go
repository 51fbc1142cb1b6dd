package trace

// source_contract_test.go checks the Source contract once, over every
// implementation in this package (internal/synth and internal/faultinject
// run the same checks over theirs): the stream does not depend on the
// size of the batches it is pulled in, an empty pull is free, and a
// terminal error stays terminal.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// pullAll drains src through a dst of the given size and returns the
// records with the terminal error. With probe set it makes an empty pull
// ahead of every real one, which must return (0, nil) — or, from a source
// already at its end, the terminal error the real pull then repeats.
func pullAll(t *testing.T, src Source, size int, probe bool) ([]Record, error) {
	t.Helper()
	var out []Record
	dst := make([]Record, size)
	for {
		var probeErr error
		if probe {
			var n int
			if n, probeErr = src.NextBatch(nil); n != 0 {
				t.Fatalf("NextBatch(nil) = (%d, %v), want 0 records", n, probeErr)
			}
		}
		n, err := src.NextBatch(dst)
		if probeErr != nil && (n != 0 || err == nil || err.Error() != probeErr.Error()) {
			t.Fatalf("NextBatch(nil) failed with %v on a source that then returned (%d, %v)", probeErr, n, err)
		}
		out = append(out, dst[:n]...)
		if err != nil {
			return out, err
		}
		if n == 0 {
			t.Fatalf("NextBatch(len %d) = (0, nil): no progress", size)
		}
	}
}

// checkSourceContract runs the contract over fresh, identical sources
// built by mk.
func checkSourceContract(t *testing.T, mk func() Source) {
	t.Helper()
	want, wantErr := pullAll(t, mk(), DefaultBatchSize, false)
	if wantErr == nil {
		t.Fatal("source never terminated")
	}
	for _, size := range []int{1, 7} {
		src := mk()
		// Empty pulls interleaved with the real ones must consume nothing.
		got, err := pullAll(t, src, size, true)
		if err.Error() != wantErr.Error() {
			t.Fatalf("dst of %d: terminal error %v, want %v", size, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("dst of %d: %d records, dst of %d: %d", size, len(got), DefaultBatchSize, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dst of %d: record %d is %+v, want %+v", size, i, got[i], want[i])
			}
		}
		// A terminal error is sticky.
		for i := 0; i < 2; i++ {
			if n, err := src.NextBatch(make([]Record, size)); n != 0 || err == nil {
				t.Fatalf("dst of %d: pull %d after the terminal error = (%d, %v), want (0, error)", size, i, n, err)
			}
		}
	}
}

func TestSourceContract(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	records := randomRecords(rand.New(rand.NewSource(11)), 400)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	// Malformed rows in the middle, so the policy cases have something to
	// reject and the skip cases something to skip.
	lines := strings.SplitAfter(buf.String(), "\n")
	mid := len(lines) / 2
	csvData := strings.Join(lines[:mid], "") + "not,a,row\n1,bad-time,2014-08-01T08:05:00Z,7,addr,100,LTE\n" + strings.Join(lines[mid:], "")
	broken := errors.New("read: connection reset")

	// ingest builds a CSV reader and registers its Close.
	ingest := func(t *testing.T, open func() (IngestSource, error)) Source {
		src, err := open()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(src.Close)
		return src
	}
	// failing yields the records and then a sticky failure rather than EOF.
	failing := func() Source {
		pos := 0
		return SourceFunc(func() (Record, error) {
			if pos == len(records) {
				return Record{}, broken
			}
			pos++
			return records[pos-1], nil
		})
	}
	cases := map[string]func(t *testing.T) Source{
		"SliceSource": func(*testing.T) Source { return SliceSource(records) },
		"SourceFunc":  func(*testing.T) Source { return failing() },
		"Scanner": func(t *testing.T) Source {
			return ingest(t, func() (IngestSource, error) { return NewScanner(strings.NewReader(csvData)) })
		},
		"Scanner/io-error": func(t *testing.T) Source {
			return ingest(t, func() (IngestSource, error) {
				return NewScanner(&flakyReader{payload: strings.NewReader(csvData), err: broken})
			})
		},
		"Scanner/fail-fast": func(t *testing.T) Source {
			return ingest(t, func() (IngestSource, error) {
				return NewScannerPolicy(strings.NewReader(csvData), ErrorPolicy{Mode: PolicyFailFast})
			})
		},
		"ParallelCSVSource": func(t *testing.T) Source {
			return ingest(t, func() (IngestSource, error) {
				return newParallelCSVSource(strings.NewReader(csvData), 3, 2048)
			})
		},
		"ParallelCSVSource/io-error": func(t *testing.T) Source {
			return ingest(t, func() (IngestSource, error) {
				return newParallelCSVSource(&flakyReader{payload: strings.NewReader(csvData), err: broken}, 2, 2048)
			})
		},
		"ParallelCSVSource/fail-fast": func(t *testing.T) Source {
			return ingest(t, func() (IngestSource, error) {
				return newParallelCSVSourceOpts(context.Background(), strings.NewReader(csvData), 2, 2048, ErrorPolicy{Mode: PolicyFailFast})
			})
		},
		"IngestSource/retry": func(t *testing.T) Source {
			return ingest(t, func() (IngestSource, error) {
				return NewIngestSourceContext(context.Background(), strings.NewReader(csvData), 2,
					ErrorPolicy{Retry: RetryPolicy{MaxAttempts: 2, Backoff: time.Microsecond}})
			})
		},
		"CleanedSource": func(*testing.T) Source { return CleanSourceWindow(SliceSource(records), 0) },
		"CleanedSource/window": func(*testing.T) Source {
			return CleanSourceWindow(SliceSource(records), 16)
		},
		"CtxSource": func(t *testing.T) Source {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			return WithContext(ctx, SliceSource(records))
		},
		"ReplaySource": func(*testing.T) Source {
			return NewReplaySource(context.Background(), SliceSource(records), 0)
		},
		"ReadAheadSource": func(t *testing.T) Source {
			src := ReadAhead(SliceSource(records), nil)
			t.Cleanup(src.Close)
			return src
		},
		"ReadAheadSource/io-error": func(t *testing.T) Source {
			src := ReadAhead(failing(), nil)
			t.Cleanup(src.Close)
			return src
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			checkSourceContract(t, func() Source { return mk(t) })
		})
	}
}

// TestSourceContractCancelledContext pins the one place a source pipeline
// observes cancellation: once ctx ends, a WithContext source returns
// ctx.Err() without touching the source it wraps — directly, through a
// cleaner, and (the ReadAhead subtest) after what a read-ahead stage had
// already pulled.
func TestSourceContractCancelledContext(t *testing.T) {
	pulls := 0
	inner := SourceFunc(func() (Record, error) {
		pulls++
		return validRecord(), nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	src := WithContext(ctx, inner)
	if n, err := src.NextBatch(make([]Record, 3)); n != 3 || err != nil {
		t.Fatalf("live pull = (%d, %v)", n, err)
	}
	cancel()
	for _, dst := range [][]Record{make([]Record, 3), make([]Record, 1), nil} {
		if n, err := src.NextBatch(dst); n != 0 || !errors.Is(err, context.Canceled) {
			t.Fatalf("NextBatch(len %d) after cancel = (%d, %v), want (0, context.Canceled)", len(dst), n, err)
		}
	}
	if pulls != 3 {
		t.Fatalf("cancelled source pulled from the wrapped source: %d pulls, want 3", pulls)
	}

	// Cancelled before the first pull: nothing is consumed at all, through
	// a cleaner as well.
	pulls = 0
	cleaned := CleanSourceWindow(WithContext(ctx, inner), 0)
	if n, err := cleaned.NextBatch(make([]Record, 8)); n != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled cleaned pull = (%d, %v), want (0, context.Canceled)", n, err)
	}
	if pulls != 0 || cleaned.Stats().Input != 0 {
		t.Fatalf("pre-cancelled pipeline consumed %d records (cleaner saw %d)", pulls, cleaned.Stats().Input)
	}
	t.Run("ReadAhead", cancelledContextReadAhead)
}

// cancelledContextReadAhead is the same pin with a read-ahead stage over
// the WithContext source: what the producer had pulled when ctx ended — at
// most ReadAheadDepth batches — still comes out, in order, then ctx.Err()
// on every later call; nothing is pulled after the cancellation and
// nothing pulled is lost.
func cancelledContextReadAhead(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	var pulls atomic.Int64
	inner := SourceFunc(func() (Record, error) {
		r := validRecord()
		r.Bytes = pulls.Add(1)
		return r, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	src := ReadAhead(WithContext(ctx, inner), nil)
	defer src.Close()
	dst := make([]Record, 3)
	if n, err := src.NextBatch(dst); n != 3 || err != nil {
		t.Fatalf("live pull = (%d, %v)", n, err)
	}
	cancel()
	got := int64(3)
	for {
		n, err := src.NextBatch(dst)
		for _, r := range dst[:n] {
			if got++; r.Bytes != got {
				t.Fatalf("record %d arrived in place %d", r.Bytes, got)
			}
		}
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("terminal error %v, want context.Canceled", err)
			}
			break
		}
	}
	if got != pulls.Load() {
		t.Fatalf("%d records delivered, %d pulled from the wrapped source", got, pulls.Load())
	}
	if limit := int64(3 + ReadAheadDepth*DefaultBatchSize); got > limit {
		t.Fatalf("%d records came out after the cancellation, want at most the %d read ahead", got-3, limit-3)
	}
	for _, dst := range [][]Record{dst, dst[:1], nil} {
		if n, err := src.NextBatch(dst); n != 0 || !errors.Is(err, context.Canceled) {
			t.Fatalf("NextBatch(len %d) after the terminal error = (%d, %v), want (0, context.Canceled)", len(dst), n, err)
		}
	}
	if got != pulls.Load() {
		t.Fatalf("the producer kept pulling after the cancellation: %d pulls, %d delivered", pulls.Load(), got)
	}
}
