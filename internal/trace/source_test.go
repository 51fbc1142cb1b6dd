package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSliceSourceAndCollect(t *testing.T) {
	records := []Record{validRecord()}
	r2 := validRecord()
	r2.UserID = 99
	records = append(records, r2)

	src := SliceSource(records)
	back, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != records[0] || back[1] != records[1] {
		t.Errorf("collect = %+v", back)
	}
	// Exhausted sources keep returning io.EOF.
	if _, err := next(src); !errors.Is(err, io.EOF) {
		t.Errorf("exhausted source: %v", err)
	}
	if got, err := Collect(SliceSource(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty source: %v, %v", got, err)
	}
}

func TestForEachStopsOnCallbackError(t *testing.T) {
	boom := errors.New("boom")
	n := 0
	err := forEach(SliceSource([]Record{validRecord(), validRecord()}), func(Record) error {
		n++
		return boom
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Errorf("err = %v after %d records", err, n)
	}
}

func TestCSVReaderStreamingRoundTrip(t *testing.T) {
	records := []Record{validRecord()}
	r2 := validRecord()
	r2.UserID = 43
	r2.Tech = Tech3G
	r2.Address = `Tricky "quoted", address`
	records = append(records, r2)

	var buf bytes.Buffer
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	cr, err := NewCSVReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Collect(SourceFunc(cr.Next))
	if err != nil {
		t.Fatal(err)
	}
	if cr.Skipped() != 0 {
		t.Errorf("skipped = %d, want 0", cr.Skipped())
	}
	if len(back) != len(records) {
		t.Fatalf("round trip length %d, want %d", len(back), len(records))
	}
	for i := range records {
		if !back[i].Start.Equal(records[i].Start) || !back[i].End.Equal(records[i].End) {
			t.Errorf("record %d times differ", i)
		}
		if back[i].UserID != records[i].UserID || back[i].Address != records[i].Address ||
			back[i].Bytes != records[i].Bytes || back[i].Tech != records[i].Tech {
			t.Errorf("record %d differs: %+v vs %+v", i, back[i], records[i])
		}
	}
}

func TestCSVReaderSkipAccounting(t *testing.T) {
	csvData := strings.Join([]string{
		"user_id,start,end,tower_id,address,bytes,tech",
		"1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE",
		"not-a-number,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE",
		"too,few,fields",
		"1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE,extra-field",
		"3,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,-5,LTE",
		"5,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,3G",
	}, "\n")
	cr, err := NewCSVReader(strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	back, err := Collect(SourceFunc(cr.Next))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Errorf("parsed %d records, want 2", len(back))
	}
	if cr.Skipped() != 4 {
		t.Errorf("skipped = %d, want 4", cr.Skipped())
	}
}

// flakyReader yields its payload and then fails with a non-EOF I/O error,
// modelling a broken pipe mid-trace.
type flakyReader struct {
	payload io.Reader
	err     error
}

func (r *flakyReader) Read(p []byte) (int, error) {
	n, err := r.payload.Read(p)
	if errors.Is(err, io.EOF) {
		return n, r.err
	}
	return n, err
}

// Regression test for the ReadCSV infinite loop: an I/O error from the
// underlying reader must abort the read, not be counted as a skipped row
// forever.
func TestCSVReaderAbortsOnIOError(t *testing.T) {
	broken := errors.New("read: connection reset")
	header := "user_id,start,end,tower_id,address,bytes,tech\n" +
		"1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE\n"
	cr, err := NewCSVReader(&flakyReader{payload: strings.NewReader(header), err: broken})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Next(); err != nil {
		t.Fatalf("first record should parse, got %v", err)
	}
	if _, err := cr.Next(); !errors.Is(err, broken) {
		t.Fatalf("I/O error should abort the stream, got %v", err)
	}
	// The error is sticky.
	if _, err := cr.Next(); !errors.Is(err, broken) {
		t.Fatalf("error should be sticky, got %v", err)
	}

	records, _, err := readCSV(&flakyReader{payload: strings.NewReader(header), err: broken})
	if !errors.Is(err, broken) {
		t.Fatalf("readCSV should surface the I/O error, got %v (records=%v)", err, records)
	}
}

// randomRecords builds a record batch with duplicate and conflicting
// copies in random positions, plus some invalid records.
func randomRecords(rng *rand.Rand, n int) []Record {
	out := make([]Record, 0, 2*n)
	for i := 0; i < n; i++ {
		r := validRecord()
		r.UserID = rng.Intn(6)
		r.TowerID = rng.Intn(4)
		r.Start = t0.Add(time.Duration(rng.Intn(8)) * time.Minute)
		r.End = r.Start.Add(time.Minute)
		r.Bytes = int64(1 + rng.Intn(1000))
		out = append(out, r)
		switch rng.Intn(4) {
		case 0: // exact duplicate
			out = append(out, r)
		case 1: // conflicting smaller copy
			c := r
			c.Bytes = r.Bytes/2 + 1
			out = append(out, c)
		case 2: // invalid record
			c := r
			c.Bytes = -1
			out = append(out, c)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Property: for every connection key, the bytes forwarded by the
// streaming Cleaner sum to exactly what the batch Clean keeps, and the
// removal counters agree.
func TestCleanerStreamEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		records := randomRecords(rng, 30)

		cleaned, batchStats := Clean(records)
		wantBytes := make(map[key]int64)
		for _, r := range cleaned {
			wantBytes[r.key()] += r.Bytes
		}

		src := CleanSource(SliceSource(records))
		gotBytes := make(map[key]int64)
		if err := forEach(src, func(r Record) error {
			gotBytes[r.key()] += r.Bytes
			return nil
		}); err != nil {
			t.Logf("streaming clean failed: %v", err)
			return false
		}
		streamStats := src.Stats()

		if len(gotBytes) != len(wantBytes) {
			return false
		}
		for k, want := range wantBytes {
			if gotBytes[k] != want {
				return false
			}
		}
		return streamStats.Input == batchStats.Input &&
			streamStats.Invalid == batchStats.Invalid &&
			streamStats.Duplicates == batchStats.Duplicates &&
			streamStats.Conflicts == batchStats.Conflicts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCleanerLateLargerConflictAmends(t *testing.T) {
	small := validRecord()
	small.Bytes = 10
	big := small
	big.Bytes = 100

	c := NewCleaner()
	first, ok := c.Observe(small)
	if !ok || first.Bytes != 10 {
		t.Fatalf("first copy should be forwarded unchanged, got %+v (%v)", first, ok)
	}
	amend, ok := c.Observe(big)
	if !ok || amend.Bytes != 90 {
		t.Fatalf("late larger conflict should forward the delta 90, got %+v (%v)", amend, ok)
	}
	if _, ok := c.Observe(big); ok {
		t.Error("replay of the largest copy should be dropped")
	}
	stats := c.Stats()
	if stats.Conflicts != 1 || stats.Duplicates != 1 || stats.Output != 2 {
		t.Errorf("stats = %+v", stats)
	}
}
