package synth

// source_contract_test.go runs the trace.Source contract of
// internal/trace/source_contract_test.go (same checks, copied: the two
// test packages cannot share a helper) over LogStream.

import (
	"testing"

	"repro/internal/trace"
)

// pullAll drains src through a dst of the given size and returns the
// records with the terminal error. With probe set it makes an empty pull
// ahead of every real one, which must return (0, nil) — or, from a source
// already at its end, the terminal error the real pull then repeats.
func pullAll(t *testing.T, src trace.Source, size int, probe bool) ([]trace.Record, error) {
	t.Helper()
	var out []trace.Record
	dst := make([]trace.Record, size)
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
func checkSourceContract(t *testing.T, mk func() trace.Source) {
	t.Helper()
	want, wantErr := pullAll(t, mk(), trace.DefaultBatchSize, false)
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
			t.Fatalf("dst of %d: %d records, dst of %d: %d", size, len(got), trace.DefaultBatchSize, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dst of %d: record %d is %+v, want %+v", size, i, got[i], want[i])
			}
		}
		// A terminal error is sticky.
		for i := 0; i < 2; i++ {
			if n, err := src.NextBatch(make([]trace.Record, size)); n != 0 || err == nil {
				t.Fatalf("dst of %d: pull %d after the terminal error = (%d, %v), want (0, error)", size, i, n, err)
			}
		}
	}
}

func TestLogSourceContract(t *testing.T) {
	city, series := logTestCity(t)
	stream := func(series []TowerSeries) func() trace.Source {
		return func() trace.Source {
			src := city.LogSource(series, LogOptions{})
			t.Cleanup(src.Close)
			return src
		}
	}
	t.Run("log", func(t *testing.T) { checkSourceContract(t, stream(series)) })
	// A series the generator rejects: its error is the whole stream.
	bad := []TowerSeries{{TowerID: 99999, Bytes: make([]float64, city.Config.TotalSlots())}}
	t.Run("generator-error", func(t *testing.T) { checkSourceContract(t, stream(bad)) })
}
