package faultinject_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/panicsafe"
	"repro/internal/trace"
)

// FuzzFaultySource drives the full ingestion stack through
// fuzzer-chosen fault schedules over fuzzer-chosen bytes. The harness
// asserts the robustness contract, not parsing results: for ANY input
// and ANY fault schedule the stack must terminate (no deadlock), must
// not panic (no *panicsafe.Error may surface), must keep its skip
// accounting consistent, and must report cancellation and injected
// faults as clean errors.
func FuzzFaultySource(f *testing.F) {
	wellFormed, _ := genTrace(f, 64, 7)
	f.Add(wellFormed, int64(1), uint8(1), uint8(0), uint8(0), uint16(0))
	f.Add(wellFormed, int64(2), uint8(4), uint8(40), uint8(30), uint16(100))
	f.Add([]byte("user_id,start,end,tower_id,address,bytes,tech\ngarbage\n"), int64(3), uint8(2), uint8(10), uint8(10), uint16(10))
	f.Add([]byte{}, int64(4), uint8(3), uint8(200), uint8(200), uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, seed int64, workers, probA, probB uint8, truncate uint16) {
		if len(data) > 1<<15 {
			return // schedule structure matters, not volume
		}
		prof := faultinject.Profile{
			Seed:          seed,
			TransientProb: float64(probA%101) / 250, // ≤ 0.4
			MaxTransient:  32,
			ShortReadProb: float64(probB%101) / 200, // ≤ 0.5
			CorruptProb:   float64(probA%13) / 100,
			TruncateAt:    int64(truncate),
		}
		policy := trace.ErrorPolicy{
			Mode:   trace.PolicyMode(int(probB) % 3),
			Budget: trace.Budget{MaxRows: int(probA)%8 + 1},
			Retry:  trace.RetryPolicy{MaxAttempts: 4, Backoff: time.Microsecond},
		}
		w := int(workers)%4 + 1

		ctx := context.Background()
		fr := faultinject.NewReader(bytes.NewReader(data), prof)
		src, err := trace.NewIngestSourceContext(ctx, fr, w, policy)
		if err != nil {
			return // unreadable header: clean constructor error
		}
		defer src.Close()
		var rows int64
		buf := make([]trace.Record, 256)
		for {
			n, err := src.NextBatch(buf)
			rows += int64(n)
			if err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				var pe *panicsafe.Error
				if errors.As(err, &pe) {
					t.Fatalf("fault schedule produced a panic: %v", err)
				}
				break // any other error is a clean abort
			}
		}
		if st := src.Stats(); st.MalformedRows < 0 || st.BadTimestamps < 0 || st.BadFields < 0 {
			t.Fatalf("inconsistent skip accounting: %v", st)
		}
	})
}
