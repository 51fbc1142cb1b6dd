package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// newParallelCSVSource exposes the chunk size so tests can force many
// tiny chunks through small inputs.
func newParallelCSVSource(r io.Reader, workers, chunkSize int) (*ParallelCSVSource, error) {
	return newParallelCSVSourceOpts(context.Background(), r, workers, chunkSize, ErrorPolicy{})
}

// parallelTestTrace builds a CSV trace with the full menu of realistic
// content: clean rows, duplicates/conflicts, quoted addresses (some with
// embedded newlines and escaped quotes), value-malformed rows,
// field-count-malformed rows and blank lines.
func parallelTestTrace(t testing.TB, rows int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	cw := NewCSVWriter(&buf)
	for i := 0; i < rows; i++ {
		r := validRecord()
		r.UserID = rng.Intn(500)
		r.TowerID = rng.Intn(40)
		r.Bytes = int64(1 + rng.Intn(1_000_000))
		switch rng.Intn(8) {
		case 0:
			r.Address = fmt.Sprintf("No.%d Century Road, Pudong (BS-%05d)", i, r.TowerID)
		case 1:
			r.Address = "say \"hi\", ok\nsecond line"
		case 2:
			r.Tech = Tech3G
		}
		if err := cw.Write(r); err != nil {
			t.Fatal(err)
		}
		var raw string
		switch rng.Intn(16) {
		case 0:
			raw = "not-a-number,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE\n"
		case 1:
			raw = "too,few,fields\n"
		case 2:
			raw = "\n"
		case 3:
			raw = "3,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,-5,LTE\n"
		}
		if raw != "" {
			// Drain the writer's row buffer first so the injected
			// malformed line lands at its in-order position.
			if err := cw.Flush(); err != nil {
				t.Fatal(err)
			}
			buf.WriteString(raw)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelCSVSourceMatchesCSVReader is the ordering and accounting
// equivalence property of the tentpole: for any worker count the
// parallel parser yields exactly the records, order and skip count of
// the serial CSVReader.
func TestParallelCSVSourceMatchesCSVReader(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	data := parallelTestTrace(t, 20_000, 3)

	cr, err := NewCSVReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(SourceFunc(cr.Next))
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			p, err := NewParallelCSVSource(bytes.NewReader(data), workers)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			got, err := Collect(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("parallel %d records, serial %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d differs:\nparallel: %+v\nserial:   %+v", i, got[i], want[i])
				}
			}
			if int(p.Stats().SkippedRows()) != cr.Skipped() {
				t.Errorf("skipped %d, serial %d", p.Stats().SkippedRows(), cr.Skipped())
			}
		})
	}
}

// TestParallelCSVSourceSmallChunksOrdering forces many tiny chunks
// through small reads so reassembly ordering is exercised hard even on
// one core.
func TestParallelCSVSourceSmallChunksOrdering(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCSVWriter(&buf)
	const rows = 50_000
	for i := 0; i < rows; i++ {
		r := validRecord()
		r.UserID = i // encodes the input order
		if err := cw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	p, err := NewParallelCSVSource(bytes.NewReader(buf.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seen := 0
	if err := ForEachBatch(p, func(batch []Record) error {
		for _, r := range batch {
			if r.UserID != seen {
				return fmt.Errorf("record %d arrived as user %d: order broken", seen, r.UserID)
			}
			seen++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != rows {
		t.Fatalf("drained %d records, want %d", seen, rows)
	}
}

// TestParallelCSVSourceHugeRecord exercises the chunk-growth path with a
// single record far larger than the chunk size.
func TestParallelCSVSourceHugeRecord(t *testing.T) {
	big := validRecord()
	big.Address = strings.Repeat("x", parallelChunkSize+parallelChunkSize/2)
	records := []Record{validRecord(), big, validRecord()}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	p, err := NewParallelCSVSource(bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1].Address != big.Address {
		t.Fatalf("huge record mangled: %d records", len(got))
	}
}

// TestParallelCSVSourceQuotedNewlinesAcrossChunks pins the quote-parity
// boundary detection: addresses with embedded newlines must never be
// torn at a chunk boundary.
func TestParallelCSVSourceQuotedNewlinesAcrossChunks(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCSVWriter(&buf)
	const rows = 30_000
	for i := 0; i < rows; i++ {
		r := validRecord()
		r.UserID = i
		r.Address = "line one\nline two, still the address"
		if err := cw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	p, err := NewParallelCSVSource(bytes.NewReader(buf.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != rows {
		t.Fatalf("parsed %d records, want %d (a quoted newline was torn)", len(got), rows)
	}
	if p.Stats().SkippedRows() != 0 {
		t.Errorf("skipped %d rows of well-formed input", p.Stats().SkippedRows())
	}
}

// TestParallelCSVSourceBareQuoteResync is the regression test for the
// boundary scanner's malformed-quote handling: a bare quote inside an
// unquoted field is content of one rejected row, not a quoting-state
// toggle, so it must not poison chunk splitting for the valid quoted
// multi-line fields that follow. Tiny chunks force splits right through
// the contaminated region.
func TestParallelCSVSourceBareQuoteResync(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCSVWriter(&buf)
	writeRows := func(n, base int) {
		for i := 0; i < n; i++ {
			r := validRecord()
			r.UserID = base + i
			r.Address = "multi\nline, quoted address"
			if err := cw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	writeRows(100, 0)
	// One row with a bare quote in an unquoted field (odd quote count).
	buf.WriteString("1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,bad\"addr,100,LTE\n")
	writeRows(2000, 100)
	data := buf.Bytes()

	cr, err := NewCSVReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(SourceFunc(cr.Next))
	if err != nil {
		t.Fatal(err)
	}

	p, err := newParallelCSVSource(bytes.NewReader(data), 3, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel %d records, serial %d: a record was torn or lost", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	if int(p.Stats().SkippedRows()) != cr.Skipped() {
		t.Errorf("skipped %d, serial %d", p.Stats().SkippedRows(), cr.Skipped())
	}
}

// TestParallelCSVSourceErroredLineIsSkippedRaw pins the subtlest piece
// of boundary equivalence: once a row errors (bare quote or quote
// followed by junk), the serial parser discards the REST OF THAT LINE as
// raw text — a later `,"` on the same line must NOT open a quoted field
// that swallows the following newline. Each malformed line here would
// desynchronise a quote-state tracker that keeps interpreting the line.
func TestParallelCSVSourceErroredLineIsSkippedRaw(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCSVWriter(&buf)
	malformed := []string{
		// Bare quote, then a field-start quote later on the same line.
		"1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,ba\"d,\"open quote,100,LTE\n",
		// Closing quote followed by junk, then another quote pair.
		"1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,\"addr\"junk,\"more,100,LTE\n",
		// Bare quote with an odd total quote count on the line.
		"1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,x\"y\"z\",100,LTE\n",
	}
	for i := 0; i < 600; i++ {
		r := validRecord()
		r.UserID = i
		if i%3 == 0 {
			r.Address = "multi\nline, quoted"
		}
		if err := cw.Write(r); err != nil {
			t.Fatal(err)
		}
		if i%40 == 5 {
			if err := cw.Flush(); err != nil {
				t.Fatal(err)
			}
			buf.WriteString(malformed[i%len(malformed)])
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cr, err := NewCSVReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(SourceFunc(cr.Next))
	if err != nil {
		t.Fatal(err)
	}
	p, err := newParallelCSVSource(bytes.NewReader(data), 3, 384)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || int(p.Stats().SkippedRows()) != cr.Skipped() {
		t.Fatalf("parallel %d records/%d skipped, serial %d/%d",
			len(got), p.Stats().SkippedRows(), len(want), cr.Skipped())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestParallelCSVSourceTinyChunksAdversarial sweeps randomly corrupted
// traces through tiny chunks, asserting record and skip equivalence with
// the serial reader even when splits land amid malformed rows.
func TestParallelCSVSourceTinyChunksAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		data := parallelTestTrace(t, 400, int64(trial))
		// Corrupt random bytes, biased towards quoting structure.
		d := append([]byte(nil), data...)
		for i := 0; i < trial; i++ {
			d[rng.Intn(len(d))] = byte(`"",x\n`[rng.Intn(6)])
		}
		cr, err := NewCSVReader(bytes.NewReader(d))
		if err != nil {
			continue // header corrupted: construction equivalence is covered elsewhere
		}
		want, err := Collect(SourceFunc(cr.Next))
		if err != nil {
			t.Fatal(err)
		}
		p, err := newParallelCSVSource(bytes.NewReader(d), 3, 256)
		if err != nil {
			t.Fatalf("trial %d: serial constructed but parallel did not: %v", trial, err)
		}
		got, err := Collect(p)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || int(p.Stats().SkippedRows()) != cr.Skipped() {
			t.Fatalf("trial %d: parallel %d/%d skipped, serial %d/%d skipped",
				trial, len(got), p.Stats().SkippedRows(), len(want), cr.Skipped())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: record %d differs", trial, i)
			}
		}
	}
}

// TestParallelCSVSourceIOError checks that a mid-stream I/O failure
// surfaces as a terminal error after the records read before it.
func TestParallelCSVSourceIOError(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	broken := errors.New("read: connection reset")
	payload := scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE\n"
	p, err := NewParallelCSVSource(&flakyReader{payload: strings.NewReader(payload), err: broken}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := next(p); err != nil {
		t.Fatalf("first record should parse, got %v", err)
	}
	if _, err := next(p); !errors.Is(err, broken) {
		t.Fatalf("I/O error should abort the stream, got %v", err)
	}
	if _, err := next(p); !errors.Is(err, broken) {
		t.Fatalf("error should be sticky, got %v", err)
	}
}

// TestParallelCSVSourceSurfacesHeaderLatchedError pins the hand-off of
// a read error that arrives together with the data during header
// parsing: the parallel source must yield the buffered records and then
// the error, like the serial Scanner, not a clean io.EOF.
func TestParallelCSVSourceSurfacesHeaderLatchedError(t *testing.T) {
	broken := errors.New("read: disk gone")
	var buf bytes.Buffer
	records := make([]Record, 40)
	for i := range records {
		records[i] = validRecord()
		records[i].UserID = i
	}
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	// The whole payload arrives in one Read together with the error, so
	// the header scanner latches it before the chunk reader ever runs.
	p, err := NewParallelCSVSource(&dataWithErrReader{data: buf.Bytes(), err: broken}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var got []Record
	var gerr error
	for {
		r, err := next(p)
		if err != nil {
			gerr = err
			break
		}
		got = append(got, r)
	}
	if !errors.Is(gerr, broken) {
		t.Fatalf("terminal error = %v, want the latched read error", gerr)
	}
	if len(got) != len(records) {
		t.Fatalf("yielded %d of %d records buffered before the error", len(got), len(records))
	}
}

// TestParallelCSVSourceCloseEarly abandons the stream after one batch;
// the background goroutines must wind down without deadlock and
// subsequent reads must report io.EOF.
func TestParallelCSVSourceCloseEarly(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	data := parallelTestTrace(t, 200_000, 8)
	p, err := NewParallelCSVSource(bytes.NewReader(data), 4)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Record, 64)
	if n, err := p.NextBatch(dst); n == 0 || err != nil {
		t.Fatalf("first batch: n=%d err=%v", n, err)
	}
	p.Close()
	p.Close() // idempotent
	if _, err := next(p); !errors.Is(err, io.EOF) {
		t.Errorf("closed source should return io.EOF, got %v", err)
	}
}

// TestParallelCSVSourceBadHeader mirrors the serial construction errors.
func TestParallelCSVSourceBadHeader(t *testing.T) {
	for _, data := range []string{"", "foo,bar\n1,2\n", "a,b,c,d,e,f,g\n"} {
		if _, err := NewParallelCSVSource(strings.NewReader(data), 2); err == nil {
			t.Errorf("header %q should fail", data)
		}
	}
}

// TestIngestSourceSelection checks the worker-count dispatch helper.
func TestIngestSourceSelection(t *testing.T) {
	data := parallelTestTrace(t, 500, 2)
	serial, err := newIngestSource(bytes.NewReader(data), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := serial.(*Scanner); !ok {
		t.Errorf("workers=1 should select the serial Scanner, got %T", serial)
	}
	par, err := newIngestSource(bytes.NewReader(data), 2)
	if err != nil {
		t.Fatal(err)
	}
	ps, ok := par.(*ParallelCSVSource)
	if !ok {
		t.Fatalf("workers=2 should select ParallelCSVSource, got %T", par)
	}
	defer ps.Close()

	a, err := Collect(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || serial.Stats().SkippedRows() != par.Stats().SkippedRows() {
		t.Fatalf("serial %d/%d skipped, parallel %d/%d skipped",
			len(a), serial.Stats().SkippedRows(), len(b), par.Stats().SkippedRows())
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between serial and parallel ingest", i)
		}
	}
}
