package faultinject_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/panicsafe"
	"repro/internal/pipeline"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// chaosWorkerCounts sweeps the serial path and the parallel chunk parser.
func chaosWorkerCounts() []int { return []int{1, 2, 4} }

// TestChaosIngestion drives the full ingestion stack (serial Scanner and
// ParallelCSVSource, each behind NewIngestSourceContext) through every
// fault profile at every worker count. For each profile the invariants
// are exact: a profile that injects nothing must reproduce the baseline
// bit-for-bit; retryable faults must be absorbed (and counted); byte
// damage must surface as skip accounting or a clean error; permanent
// faults must abort with a positioned, classifiable error. Run under
// -race this doubles as the data-race sweep of the whole pool machinery.
func TestChaosIngestion(t *testing.T) {
	data, wantBad := genTrace(t, 2000, 100)

	// Baseline: serial, no faults.
	base, err := trace.NewIngestSourceContext(context.Background(), bytes.NewReader(data), 1, trace.ErrorPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	baseRecs, baseStats, baseErr := ingest(base)
	if baseErr != nil {
		t.Fatal(baseErr)
	}
	if got := int(baseStats.SkippedRows()); got != wantBad {
		t.Fatalf("baseline skipped %d rows, generator injected %d", got, wantBad)
	}

	retry := trace.RetryPolicy{MaxAttempts: 8, Backoff: 50 * time.Microsecond}
	profiles := []struct {
		name  string
		prof  faultinject.Profile
		check func(t *testing.T, recs []trace.Record, stats trace.SkipStats, err error, counts faultinject.Counts)
	}{
		{
			name: "none",
			prof: faultinject.Profile{},
			check: func(t *testing.T, recs []trace.Record, stats trace.SkipStats, err error, _ faultinject.Counts) {
				if err != nil {
					t.Fatalf("no-fault run failed: %v", err)
				}
				if !reflect.DeepEqual(recs, baseRecs) {
					t.Fatalf("no-fault run not bit-identical to baseline: %d vs %d records", len(recs), len(baseRecs))
				}
				if stats.SkippedRows() != baseStats.SkippedRows() {
					t.Fatalf("no-fault stats diverged: %v vs %v", stats, baseStats)
				}
			},
		},
		{
			name: "transient-retried",
			prof: faultinject.Profile{Seed: 7, TransientProb: 0.1},
			check: func(t *testing.T, recs []trace.Record, stats trace.SkipStats, err error, counts faultinject.Counts) {
				if err != nil {
					t.Fatalf("retried run failed: %v (counts %+v)", err, counts)
				}
				if !reflect.DeepEqual(recs, baseRecs) {
					t.Fatalf("retry must be invisible to the record stream: %d vs %d records", len(recs), len(baseRecs))
				}
				if counts.Transient > 0 && stats.IORetries == 0 {
					t.Fatalf("%d transient faults fired but IORetries is 0", counts.Transient)
				}
			},
		},
		{
			name: "short-reads",
			prof: faultinject.Profile{Seed: 11, ShortReadProb: 0.5},
			check: func(t *testing.T, recs []trace.Record, stats trace.SkipStats, err error, _ faultinject.Counts) {
				if err != nil {
					t.Fatalf("short reads are legal io.Reader behaviour: %v", err)
				}
				if !reflect.DeepEqual(recs, baseRecs) {
					t.Fatalf("short reads corrupted the record stream: %d vs %d records", len(recs), len(baseRecs))
				}
			},
		},
		{
			name: "corrupt-bytes",
			prof: faultinject.Profile{Seed: 13, CorruptProb: 0.2},
			check: func(t *testing.T, recs []trace.Record, stats trace.SkipStats, err error, counts faultinject.Counts) {
				// Corruption may break rows (skipped), may be harmless
				// (inside an address), or may break the CSV structure near
				// the header. All acceptable outcomes are: clean completion
				// with plausible accounting, or a clean error.
				if err != nil {
					return
				}
				if len(recs) > len(baseRecs)+int(counts.Corrupted) {
					t.Fatalf("corruption grew the stream: %d vs %d records", len(recs), len(baseRecs))
				}
			},
		},
		{
			name: "truncate-mid-stream",
			prof: faultinject.Profile{Seed: 17, TruncateAt: int64(len(data) / 3)},
			check: func(t *testing.T, recs []trace.Record, stats trace.SkipStats, err error, _ faultinject.Counts) {
				if err != nil {
					t.Fatalf("mid-stream EOF should end the stream cleanly: %v", err)
				}
				if len(recs) >= len(baseRecs) {
					t.Fatalf("truncated run returned %d records, full run %d", len(recs), len(baseRecs))
				}
			},
		},
		{
			name: "permanent-failure",
			prof: faultinject.Profile{Seed: 19, PermanentAt: int64(len(data) / 2)},
			check: func(t *testing.T, recs []trace.Record, stats trace.SkipStats, err error, _ faultinject.Counts) {
				if err == nil {
					t.Fatal("permanent fault must abort the stream")
				}
				var perm *faultinject.PermanentError
				if !errors.As(err, &perm) {
					t.Fatalf("cause not preserved through the chain: %v", err)
				}
				var pos *trace.PosError
				if !errors.As(err, &pos) {
					t.Fatalf("error carries no position: %v", err)
				}
				if pos.Line <= 0 || pos.Offset <= 0 {
					t.Fatalf("degenerate position line=%d offset=%d", pos.Line, pos.Offset)
				}
			},
		},
	}

	for _, workers := range chaosWorkerCounts() {
		for _, tc := range profiles {
			t.Run(fmt.Sprintf("w%d/%s", workers, tc.name), func(t *testing.T) {
				testutil.CheckNoGoroutineLeak(t)
				fr := faultinject.NewReader(bytes.NewReader(data), tc.prof)
				src, err := trace.NewIngestSourceContext(context.Background(), fr, workers,
					trace.ErrorPolicy{Mode: trace.PolicySkip, Retry: retry})
				if err != nil {
					// Header unreadable (possible under corruption): a clean
					// constructor error is an acceptable outcome.
					if tc.name == "corrupt-bytes" || tc.name == "truncate-mid-stream" {
						return
					}
					t.Fatal(err)
				}
				defer src.Close()
				recs, stats, err := ingest(src)
				tc.check(t, recs, stats, err, fr.Counts())
			})
		}
	}
}

// TestChaosIngestionWorkerSweepBitIdentical pins the determinism
// contract: with no faults firing, every worker count must produce the
// exact same records and stats.
func TestChaosIngestionWorkerSweepBitIdentical(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	data, _ := genTrace(t, 3000, 73)
	var wantRecs []trace.Record
	var wantStats trace.SkipStats
	for i, workers := range []int{1, 2, 3, 4, 8} {
		src, err := trace.NewIngestSourceContext(context.Background(), bytes.NewReader(data), workers, trace.ErrorPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		recs, stats, err := ingest(src)
		src.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			wantRecs, wantStats = recs, stats
			continue
		}
		if !reflect.DeepEqual(recs, wantRecs) {
			t.Fatalf("workers=%d records diverge from serial", workers)
		}
		if stats != wantStats {
			t.Fatalf("workers=%d stats %v, serial %v", workers, stats, wantStats)
		}
	}
}

// TestChaosBudgetPolicy drives a corrupt stream against a strict error
// budget at every worker count and asserts the run aborts with
// ErrBudgetExceeded rather than silently producing a gutted dataset.
func TestChaosBudgetPolicy(t *testing.T) {
	data, wantBad := genTrace(t, 2000, 25) // ~80 bad rows
	if wantBad < 20 {
		t.Fatalf("generator produced only %d bad rows", wantBad)
	}
	for _, workers := range chaosWorkerCounts() {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			testutil.CheckNoGoroutineLeak(t)
			src, err := trace.NewIngestSourceContext(context.Background(), bytes.NewReader(data), workers,
				trace.ErrorPolicy{Mode: trace.PolicyBudget, Budget: trace.Budget{MaxRows: 10}})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			_, _, err = ingest(src)
			if !errors.Is(err, trace.ErrBudgetExceeded) {
				t.Fatalf("want ErrBudgetExceeded, got %v", err)
			}
		})
	}
}

// drainKeep drains src batch-wise, keeping the records delivered before
// any terminal error (which trace.Collect would discard).
func drainKeep(src trace.Source) ([]trace.Record, error) {
	var out []trace.Record
	buf := make([]trace.Record, 1024)
	for {
		n, err := src.NextBatch(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
	}
}

// TestChaosFailFastPolicy asserts fail-fast semantics are exact at every
// worker count: the stream aborts at the FIRST malformed row, with the
// rows before it delivered and the error carrying the row's position.
func TestChaosFailFastPolicy(t *testing.T) {
	data, _ := genTrace(t, 1000, 100)
	var wantRecs []trace.Record
	for i, workers := range chaosWorkerCounts() {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			testutil.CheckNoGoroutineLeak(t)
			src, err := trace.NewIngestSourceContext(context.Background(), bytes.NewReader(data), workers,
				trace.ErrorPolicy{Mode: trace.PolicyFailFast})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			recs, err := drainKeep(src)
			if !errors.Is(err, trace.ErrRowRejected) {
				t.Fatalf("want ErrRowRejected, got %v", err)
			}
			var pos *trace.PosError
			if !errors.As(err, &pos) {
				t.Fatalf("fail-fast error carries no position: %v", err)
			}
			// genTrace splices the garbage row after CSV line 101 (header +
			// 100 records), so it IS line 102 of the stream.
			if pos.Line != 102 {
				t.Fatalf("fail-fast position line=%d, want 102", pos.Line)
			}
			if i == 0 {
				wantRecs = recs
			} else if !reflect.DeepEqual(recs, wantRecs) {
				t.Fatalf("workers=%d delivered %d records before the bad row, serial delivered %d",
					workers, len(recs), len(wantRecs))
			}
		})
	}
	if len(wantRecs) != 100 {
		t.Fatalf("fail-fast delivered %d records before the first bad row, want 100", len(wantRecs))
	}
}

// vectorizeOpts is the shared vectorizer window of the pipeline chaos
// tests; genTrace's records all land within the first day.
func vectorizeOpts() pipeline.VectorizerOptions {
	return pipeline.VectorizerOptions{
		Start:       time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC),
		Days:        7,
		SlotMinutes: 10,
	}
}

// vectorize runs the vectorizer over src and fails the test if the call
// itself left a goroutine behind. The count is read right before and right
// after with no settling wait — the sources start theirs at construction —
// so a pool that is merely drained late fails as well.
func vectorize(t *testing.T, ctx context.Context, src trace.Source) (*pipeline.Dataset, error) {
	t.Helper()
	before := runtime.NumGoroutine()
	ds, err := pipeline.VectorizeSourceContext(ctx, src, nil, vectorizeOpts())
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("the vectorizer left %d goroutine(s) behind (%d before, %d after)", after-before, before, after)
	}
	return ds, err
}

// TestChaosVectorizeSource drives the streaming vectorizer with faulty
// sources — mid-stream errors and panics at assorted depths — over every
// parser worker count of the source under the fault layer, asserting the
// failure always surfaces as a clean error (with the panic stack preserved)
// and that the vectorizer itself starts no goroutine.
func TestChaosVectorizeSource(t *testing.T) {
	data, _ := genTrace(t, 4000, 0)

	// Baseline dataset, no faults.
	mk := func(t *testing.T, workers int) trace.Source {
		src, err := trace.NewIngestSourceContext(context.Background(), bytes.NewReader(data), workers, trace.ErrorPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { src.Close() })
		return src
	}
	baseDS, err := vectorize(t, context.Background(), mk(t, 1))
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range chaosWorkerCounts() {
		t.Run(fmt.Sprintf("w%d/no-fault", workers), func(t *testing.T) {
			testutil.CheckNoGoroutineLeak(t)
			ds, err := vectorize(t, context.Background(), faultinject.NewSource(mk(t, workers), faultinject.SourceProfile{}))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ds.Raw, baseDS.Raw) {
				t.Fatal("no-fault dataset diverges from baseline")
			}
		})
		for _, after := range []int{1, 513, 2999} {
			t.Run(fmt.Sprintf("w%d/err-after-%d", workers, after), func(t *testing.T) {
				testutil.CheckNoGoroutineLeak(t)
				_, err := vectorize(t, context.Background(), faultinject.NewSource(mk(t, workers), faultinject.SourceProfile{ErrAfter: after}))
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("want ErrInjected through the pipeline, got %v", err)
				}
			})
			t.Run(fmt.Sprintf("w%d/panic-after-%d", workers, after), func(t *testing.T) {
				testutil.CheckNoGoroutineLeak(t)
				// A panicking source must come back as a *panicsafe.Error
				// carrying the stack — never as a crash.
				_, err := vectorize(t, context.Background(), faultinject.NewSource(mk(t, workers), faultinject.SourceProfile{PanicAfter: after}))
				var pe *panicsafe.Error
				if !errors.As(err, &pe) {
					t.Fatalf("want *panicsafe.Error for a panicking source, got %v", err)
				}
				if len(pe.Stack) == 0 {
					t.Fatal("panic error lost its stack")
				}
			})
		}
	}
}

// TestChaosIngestToVectorize chains a faulty byte stream through the
// parallel parser into the vectorizer — the full ingestion
// pipeline under byte-level chaos — and asserts every combination either
// completes or fails cleanly with zero leaked goroutines.
func TestChaosIngestToVectorize(t *testing.T) {
	data, _ := genTrace(t, 3000, 211)
	profiles := []faultinject.Profile{
		{},
		{Seed: 3, TransientProb: 0.05},
		{Seed: 5, ShortReadProb: 0.4},
		{Seed: 7, CorruptProb: 0.1},
		{Seed: 9, TruncateAt: int64(len(data) / 2)},
		{Seed: 11, PermanentAt: int64(2 * len(data) / 3)},
		{Seed: 13, TransientProb: 0.03, ShortReadProb: 0.2, CorruptProb: 0.05, DelayProb: 0.01, Delay: 100 * time.Microsecond},
	}
	retry := trace.RetryPolicy{MaxAttempts: 6, Backoff: 20 * time.Microsecond}
	for _, workers := range chaosWorkerCounts() {
		for pi, prof := range profiles {
			t.Run(fmt.Sprintf("w%d/profile%d", workers, pi), func(t *testing.T) {
				testutil.CheckNoGoroutineLeak(t)
				fr := faultinject.NewReader(bytes.NewReader(data), prof)
				src, err := trace.NewIngestSourceContext(context.Background(), fr, workers,
					trace.ErrorPolicy{Mode: trace.PolicySkip, Retry: retry})
				if err != nil {
					return // header unreadable under this schedule: clean abort
				}
				defer src.Close()
				ds, err := vectorize(t, context.Background(), src)
				if err != nil {
					if errors.Is(err, pipeline.ErrEmptyDataset) {
						return
					}
					var pe *panicsafe.Error
					if errors.As(err, &pe) {
						t.Fatalf("pipeline converted a fault into a panic: %v", err)
					}
					return // clean error is an accepted outcome under chaos
				}
				if ds.NumTowers() == 0 {
					t.Fatal("completed run produced an empty dataset without ErrEmptyDataset")
				}
			})
		}
	}
}

// TestChaosCancellation cancels the ingest→vectorize chain at randomized
// points mid-stream and asserts prompt, clean unwinding: the call
// returns context.Canceled (or completes, if cancellation lost the
// race), within a bounded wait, with no leaked goroutines.
func TestChaosCancellation(t *testing.T) {
	data, _ := genTrace(t, 5000, 0)
	rng := rngFromSeed(99)
	for _, workers := range chaosWorkerCounts() {
		for trial := 0; trial < 8; trial++ {
			t.Run(fmt.Sprintf("w%d/trial%d", workers, trial), func(t *testing.T) {
				testutil.CheckNoGoroutineLeak(t)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				// Cancel after a random number of records have flowed.
				cancelAt := rng.Intn(4000)
				n := 0
				src, err := trace.NewIngestSourceContext(ctx, bytes.NewReader(data), workers, trace.ErrorPolicy{})
				if err != nil {
					t.Fatal(err)
				}
				defer src.Close()
				var one [1]trace.Record
				counting := trace.SourceFunc(func() (trace.Record, error) {
					k, err := src.NextBatch(one[:])
					if k == 1 {
						err = nil // a final record's error is sticky: it comes back on the next pull
						n++
						if n == cancelAt {
							cancel()
						}
					}
					return one[0], err
				})
				start := time.Now()
				_, err = vectorize(t, ctx, counting)
				elapsed := time.Since(start)
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled run returned %v", err)
				}
				if elapsed > 10*time.Second {
					t.Fatalf("cancellation took %v to unwind", elapsed)
				}
			})
		}
	}
}
