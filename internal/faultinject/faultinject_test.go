package faultinject_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// genTrace writes a deterministic synthetic trace: nGood well-formed
// records over 16 towers, with one textually malformed row spliced in
// after every badEvery good rows (0 disables). It returns the CSV bytes
// and the number of malformed rows injected.
func genTrace(t testing.TB, nGood, badEvery int) ([]byte, int) {
	t.Helper()
	t0 := time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC)
	var buf bytes.Buffer
	recs := make([]trace.Record, nGood)
	for i := range recs {
		recs[i] = trace.Record{
			UserID:  i % 53,
			Start:   t0.Add(time.Duration(i%1440) * time.Minute),
			End:     t0.Add(time.Duration(i%1440+4) * time.Minute),
			TowerID: i % 16,
			Address: fmt.Sprintf("No.%d Century Road (BS-%05d)", i%97, i%16),
			Bytes:   int64(100 + i%901),
			Tech:    trace.TechLTE,
		}
	}
	if err := trace.WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if badEvery <= 0 {
		return buf.Bytes(), 0
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	var out bytes.Buffer
	bad := 0
	for i, ln := range lines {
		out.WriteString(ln)
		if i > 0 && ln != "" && i%badEvery == 0 {
			out.WriteString("this row is garbage\n")
			bad++
		}
	}
	return out.Bytes(), bad
}

// ingest drains a full ingestion source and returns the records, the
// final stats and the terminal error (nil if the stream ended at EOF).
func ingest(src trace.IngestSource) ([]trace.Record, trace.SkipStats, error) {
	recs, err := trace.Collect(src)
	return recs, src.Stats(), err
}

func TestReaderZeroProfileIsTransparent(t *testing.T) {
	data, _ := genTrace(t, 500, 0)
	got, err := io.ReadAll(faultinject.NewReader(bytes.NewReader(data), faultinject.Profile{}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("zero-profile reader altered the stream")
	}
}

func TestReaderDeterministicSchedule(t *testing.T) {
	data, _ := genTrace(t, 300, 0)
	p := faultinject.Profile{
		Seed:          42,
		TransientProb: 0.2,
		ShortReadProb: 0.3,
		CorruptProb:   0.3,
	}
	run := func() ([]byte, faultinject.Counts) {
		r := faultinject.NewReader(bytes.NewReader(data), p)
		var out []byte
		buf := make([]byte, 1024)
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				var te *faultinject.TransientError
				if errors.As(err, &te) {
					continue // retry, as the production RetryReader would
				}
				if errors.Is(err, io.EOF) {
					break
				}
				t.Fatal(err)
			}
		}
		return out, r.Counts()
	}
	out1, c1 := run()
	out2, c2 := run()
	if !bytes.Equal(out1, out2) || c1 != c2 {
		t.Fatalf("same seed produced different schedules: %+v vs %+v", c1, c2)
	}
	if c1.Transient == 0 || c1.ShortReads == 0 || c1.Corrupted == 0 {
		t.Fatalf("profile injected nothing: %+v", c1)
	}
}

func TestReaderTransientImplementsTemporary(t *testing.T) {
	r := faultinject.NewReader(strings.NewReader("xx"), faultinject.Profile{TransientProb: 1})
	_, err := r.Read(make([]byte, 2))
	if err == nil {
		t.Fatal("expected injected transient error")
	}
	if !trace.IsTransient(err) {
		t.Fatalf("trace.IsTransient(%v) = false, want true", err)
	}
	perm := faultinject.NewReader(strings.NewReader("xx"), faultinject.Profile{PermanentAt: 1})
	buf := make([]byte, 1)
	if _, err := perm.Read(buf); err != nil {
		t.Fatalf("first byte should deliver: %v", err)
	}
	_, err = perm.Read(buf)
	if err == nil || trace.IsTransient(err) {
		t.Fatalf("permanent fault should not classify as transient: %v", err)
	}
}

func TestReaderTruncateAt(t *testing.T) {
	data, _ := genTrace(t, 100, 0)
	cut := int64(len(data) / 2)
	r := faultinject.NewReader(bytes.NewReader(data), faultinject.Profile{TruncateAt: cut})
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != cut {
		t.Fatalf("delivered %d bytes, want %d", len(got), cut)
	}
	if !r.Counts().Truncated {
		t.Fatal("Truncated count not set")
	}
}

func TestSourceErrAfterAndPanicAfter(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	recs := make([]trace.Record, 100)
	for i := range recs {
		recs[i] = trace.Record{
			UserID: i, TowerID: i % 4,
			Start: time.Unix(1000, 0), End: time.Unix(1060, 0),
			Bytes: 1, Tech: trace.Tech3G,
		}
	}
	src := faultinject.NewSource(trace.SliceSource(recs), faultinject.SourceProfile{ErrAfter: 40})
	got, err := trace.Collect(src)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if len(got) != 0 {
		// Collect discards on error; what matters is the boundary below.
		t.Fatalf("Collect returned records alongside the error: %d", len(got))
	}
	if src.Delivered() != 40 {
		t.Fatalf("delivered %d records before the fault, want 40", src.Delivered())
	}

	ps := faultinject.NewSource(trace.SliceSource(recs), faultinject.SourceProfile{PanicAfter: 25})
	defer func() {
		if recover() == nil {
			t.Fatal("expected injected panic")
		}
		if ps.Delivered() != 25 {
			t.Fatalf("delivered %d records before the panic, want 25", ps.Delivered())
		}
	}()
	_, _ = trace.Collect(ps)
}

// TestSourceBatchNeverCrossesFaultBoundary pins the contract that a
// batch delivers everything before the boundary and the fault fires on
// the NEXT call.
func TestSourceBatchNeverCrossesFaultBoundary(t *testing.T) {
	recs := make([]trace.Record, 10)
	src := faultinject.NewSource(trace.SliceSource(recs), faultinject.SourceProfile{ErrAfter: 7})
	dst := make([]trace.Record, 64)
	n, err := src.NextBatch(dst)
	if n != 7 || err != nil {
		t.Fatalf("first batch = (%d, %v), want (7, nil)", n, err)
	}
	if _, err := src.NextBatch(dst); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("second batch error = %v, want ErrInjected", err)
	}
}

// TestSourceTransientFaultResumes: a Transient fault fires on exactly one
// call, hands out nothing with it, and the stream carries on from the
// record after the boundary.
func TestSourceTransientFaultResumes(t *testing.T) {
	recs := make([]trace.Record, 10)
	for i := range recs {
		recs[i].UserID = i
	}
	src := faultinject.NewSource(trace.SliceSource(recs), faultinject.SourceProfile{ErrAfter: 7, Transient: true})
	dst := make([]trace.Record, 64)
	if n, err := src.NextBatch(dst); n != 7 || err != nil {
		t.Fatalf("first batch = (%d, %v), want (7, nil)", n, err)
	}
	if n, err := src.NextBatch(dst); n != 0 || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("second batch = (%d, %v), want (0, ErrInjected)", n, err)
	}
	if n, err := src.NextBatch(dst); n != 3 || err != nil || dst[0].UserID != 7 {
		t.Fatalf("third batch = (%d, %v) starting at record %d, want (3, nil) starting at 7", n, err, dst[0].UserID)
	}
	if n, err := src.NextBatch(dst); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("fourth batch = (%d, %v), want (0, io.EOF)", n, err)
	}
	if src.Delivered() != len(recs) {
		t.Fatalf("delivered %d records, want %d", src.Delivered(), len(recs))
	}
}

// rngFromSeed gives subtests stable but distinct randomness.
func rngFromSeed(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
