package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func TestBatchedAdapterFillsAndTerminates(t *testing.T) {
	records := make([]Record, 5)
	for i := range records {
		records[i] = validRecord()
		records[i].UserID = i
	}
	// SourceFunc is the one scalar-to-batch adapter.
	pos := 0
	bs := SourceFunc(func() (Record, error) {
		if pos >= len(records) {
			return Record{}, io.EOF
		}
		r := records[pos]
		pos++
		return r, nil
	})
	dst := make([]Record, 3)
	n, err := bs.NextBatch(dst)
	if n != 3 || err != nil {
		t.Fatalf("first batch: n=%d err=%v", n, err)
	}
	n, err = bs.NextBatch(dst)
	if n != 2 || !errors.Is(err, io.EOF) {
		t.Fatalf("final batch: n=%d err=%v, want 2 records with io.EOF", n, err)
	}
	for i, want := range []int{3, 4} {
		if dst[i].UserID != want {
			t.Errorf("record %d user %d, want %d", i, dst[i].UserID, want)
		}
	}
}

func TestBatchedReturnsBatchCapableSourceAsIs(t *testing.T) {
	src := SliceSource(nil)
	if bs := Batched(src); bs != src {
		t.Error("Batched should pass a Source through unchanged")
	}
}

func TestBatchedPropagatesSourceError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	src := SourceFunc(func() (Record, error) {
		calls++
		if calls > 2 {
			return Record{}, boom
		}
		return validRecord(), nil
	})
	n, err := src.NextBatch(make([]Record, 8))
	if n != 2 || !errors.Is(err, boom) {
		t.Fatalf("n=%d err=%v, want 2 records then boom", n, err)
	}
}

func TestSliceSourceSizeHintAndBatch(t *testing.T) {
	records := make([]Record, 10)
	for i := range records {
		records[i] = validRecord()
		records[i].UserID = i
	}
	src := SliceSource(records).(interface {
		Source
		SizeHinter
	})
	if h := src.SizeHint(); h != 10 {
		t.Errorf("SizeHint = %d, want 10", h)
	}
	if _, err := next(src); err != nil {
		t.Fatal(err)
	}
	if h := src.SizeHint(); h != 9 {
		t.Errorf("SizeHint after one record = %d, want 9", h)
	}
	dst := make([]Record, 4)
	n, err := src.NextBatch(dst)
	if n != 4 || err != nil || dst[0].UserID != 1 {
		t.Fatalf("NextBatch: n=%d err=%v first=%d", n, err, dst[0].UserID)
	}
}

// hintedSource wraps a Source with a fixed size hint, to check Collect's
// preallocation path.
type hintedSource struct {
	Source
	hint int
}

func (h hintedSource) SizeHint() int { return h.hint }

func TestCollectPreallocatesFromSizeHint(t *testing.T) {
	records := make([]Record, 100)
	for i := range records {
		records[i] = validRecord()
		records[i].UserID = i
	}
	out, err := Collect(hintedSource{Source: SliceSource(records), hint: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 || cap(out) != 100 {
		t.Errorf("len=%d cap=%d, want exactly the hinted 100", len(out), cap(out))
	}
	// An under-hint must not truncate the stream.
	out, err = Collect(hintedSource{Source: SliceSource(records), hint: 3})
	if err != nil || len(out) != 100 {
		t.Errorf("under-hinted Collect: len=%d err=%v", len(out), err)
	}
	for i := range out {
		if out[i].UserID != i {
			t.Fatalf("record %d out of order: user %d", i, out[i].UserID)
		}
	}
}

func TestForEachBatchDrainsAndStops(t *testing.T) {
	records := make([]Record, 3000)
	for i := range records {
		records[i] = validRecord()
		records[i].UserID = i
	}
	seen := 0
	err := ForEachBatch(SliceSource(records), func(batch []Record) error {
		for _, r := range batch {
			if r.UserID != seen {
				t.Fatalf("record %d out of order: user %d", seen, r.UserID)
			}
			seen++
		}
		return nil
	})
	if err != nil || seen != 3000 {
		t.Fatalf("seen=%d err=%v", seen, err)
	}

	boom := errors.New("boom")
	calls := 0
	err = ForEachBatch(SliceSource(records), func([]Record) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Errorf("callback error: err=%v after %d calls", err, calls)
	}
}

func TestBatchPoolRoundTrip(t *testing.T) {
	b := GetBatch()
	if len(*b) != DefaultBatchSize {
		t.Fatalf("pooled batch has %d records, want %d", len(*b), DefaultBatchSize)
	}
	(*b)[0] = validRecord()
	PutBatch(b)
	PutBatch(nil) // must not panic
}

// TestCleanedSourceBatchMatchesScalar verifies that draining a cleaned
// stream in batches forwards exactly the records and stats of draining
// it one record at a time.
func TestCleanedSourceBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		records := randomRecords(rng, 60)

		wantSrc := cleanSource(SliceSource(records))
		var want []Record
		if err := forEach(wantSrc, func(r Record) error {
			want = append(want, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		gotSrc := cleanSource(SliceSource(records))
		var got []Record
		// Vary the batch size to hit partial-batch boundaries.
		dst := make([]Record, 1+rng.Intn(17))
		for {
			n, err := gotSrc.NextBatch(dst)
			got = append(got, dst[:n]...)
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatal(err)
				}
				break
			}
		}

		if len(got) != len(want) {
			t.Fatalf("trial %d: batch path %d records, scalar path %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: record %d differs: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
		if gotSrc.Stats() != wantSrc.Stats() {
			t.Fatalf("trial %d: stats %+v vs %+v", trial, gotSrc.Stats(), wantSrc.Stats())
		}
	}
}

// TestCleanedSourceOverScanner runs the full batched chain — scanner
// into cleaner — against the scalar encoding/csv oracle chain over the
// same CSV bytes.
func TestCleanedSourceOverScanner(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	records := randomRecords(rng, 200)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cr, err := NewCSVReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(cleanSource(SourceFunc(cr.Next)))
	if err != nil {
		t.Fatal(err)
	}

	sc, err := NewScanner(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(cleanSource(sc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batched chain %d records, scalar chain %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}
