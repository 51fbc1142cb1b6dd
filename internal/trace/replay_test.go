package trace

import (
	"context"
	"errors"
	"io"
	"slices"
	"testing"
	"time"

	"repro/internal/testutil"
)

// replayRecords builds n valid records whose Start timestamps advance by
// step each.
func replayRecords(n int, step time.Duration) []Record {
	base := time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC)
	out := make([]Record, n)
	for i := range out {
		start := base.Add(time.Duration(i) * step)
		out[i] = Record{
			UserID:  i,
			Start:   start,
			End:     start.Add(time.Minute),
			TowerID: i % 7,
			Address: "No.1 Century Road",
			Bytes:   int64(1000 + i),
			Tech:    Tech3G,
		}
	}
	return out
}

func TestReplayUnpacedPassthrough(t *testing.T) {
	recs := replayRecords(5000, time.Minute)
	rs := NewReplaySource(context.Background(), SliceSource(recs), 0)
	got, err := Collect(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("collected %d of %d records", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestReplayPacesDeliveries(t *testing.T) {
	// 20 records, 1 s of trace time apart, replayed at 100x: the last
	// record is due 19 s / 100 = 190 ms after the first.
	recs := replayRecords(20, time.Second)
	rs := NewReplaySource(context.Background(), SliceSource(recs), 100)
	start := time.Now()
	n := 0
	var buf [1]Record
	for {
		k, err := rs.NextBatch(buf[:])
		n += k
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if n != len(recs) {
		t.Fatalf("delivered %d of %d records", n, len(recs))
	}
	if elapsed < 150*time.Millisecond {
		t.Errorf("paced replay finished in %v, want >= ~190ms", elapsed)
	}
}

func TestReplayCancellationWakesSleep(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	// Real-time replay of records an hour apart: the second pull would
	// sleep for an hour; cancellation must wake it promptly.
	recs := replayRecords(10, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	rs := NewReplaySource(ctx, SliceSource(recs), 1)
	var buf [1]Record
	if _, err := rs.NextBatch(buf[:]); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// The pull that hits the pacing sleep may still deliver its record
	// (already consumed from the source); the call after that must fail.
	var err error
	for i := 0; i < 3; i++ {
		if _, err = rs.NextBatch(buf[:]); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("cancellation took %v to wake the pacing sleep", waited)
	}
}

func TestReplayNegativeSpeedPassthrough(t *testing.T) {
	// Negative speed, like zero, disables pacing entirely rather than
	// reversing time or dividing by a negative factor.
	recs := replayRecords(2000, time.Hour)
	rs := NewReplaySource(context.Background(), SliceSource(recs), -3)
	start := time.Now()
	got, err := Collect(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("collected %d of %d records", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("negative-speed replay paced anyway: took %v", elapsed)
	}
}

func TestReplayOutOfOrderTimestampsNoExtraDelay(t *testing.T) {
	// Timestamps that jump backwards (or are missing entirely) must be
	// delivered without delay and without rewinding the replay clock —
	// at real-time speed, none of these may trigger an hour-long sleep.
	base := time.Date(2014, 8, 1, 12, 0, 0, 0, time.UTC)
	recs := replayRecords(6, 0)
	recs[0].Start = base
	recs[1].Start = base.Add(-time.Hour)   // before the anchor
	recs[2].Start = base.Add(-time.Minute) // still behind
	recs[3].Start = time.Time{}            // no timestamp at all
	recs[4].Start = base                   // back to the anchor exactly
	recs[5].Start = base.Add(-2 * time.Hour)
	rs := NewReplaySource(context.Background(), SliceSource(recs), 1)
	start := time.Now()
	got, err := Collect(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("collected %d of %d records", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d reordered or altered", i)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("out-of-order records slept anyway: took %v", elapsed)
	}
}

func TestReplayCancelDuringFirstPacingSleep(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	// The very first pacing sleep: the anchor record never sleeps, so the
	// second delivery is the first call that can block — cancel while a
	// one-record pull is blocked there and it must wake promptly, hand
	// over the record it had already consumed, and leave the source
	// failed.
	recs := replayRecords(3, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	rs := NewReplaySource(ctx, SliceSource(recs), 1)
	var one [1]Record
	if n, err := rs.NextBatch(one[:]); n != 1 || err != nil { // the anchor: no sleep
		t.Fatalf("anchor pull = (%d, %v)", n, err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if n, err := rs.NextBatch(one[:]); n != 1 || err != nil || one[0] != recs[1] {
		t.Fatalf("woken pull = (%d, %v), want the consumed record delivered", n, err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("cancellation took %v to wake the first pacing sleep", waited)
	}
	// The error is sticky: later pulls fail without touching the source.
	for i := 0; i < 2; i++ {
		if n, err := rs.NextBatch(one[:]); n != 0 || !errors.Is(err, context.Canceled) {
			t.Fatalf("post-cancel pull %d = (%d, %v), want (0, context.Canceled)", i, n, err)
		}
	}
}

func TestReplayCancelledBeforeFirstPull(t *testing.T) {
	// A context cancelled before any delivery fails the very first call
	// without consuming anything from the wrapped source.
	recs := replayRecords(3, time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs := NewReplaySource(ctx, SliceSource(recs), 1)
	if _, err := next(rs); !errors.Is(err, context.Canceled) {
		t.Fatalf("one-record pull err = %v, want context.Canceled", err)
	}
	var buf [4]Record
	if n, err := rs.NextBatch(buf[:]); n != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("NextBatch = (%d, %v), want (0, context.Canceled)", n, err)
	}
}

// TestReplayScalarNext checks that one-record pulls deliver the same
// stream as full batches.
func TestReplayScalarNext(t *testing.T) {
	recs := replayRecords(8, time.Second)
	rs := NewReplaySource(context.Background(), SliceSource(recs), 1000)
	for i := range recs {
		r, err := next(rs)
		if err != nil {
			t.Fatal(err)
		}
		if r != recs[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	if _, err := next(rs); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	batched, err := Collect(NewReplaySource(context.Background(), SliceSource(recs), 1000))
	if err != nil || !slices.Equal(batched, recs) {
		t.Fatalf("full-batch replay = %d records, %v; want the same %d", len(batched), err, len(recs))
	}
}
