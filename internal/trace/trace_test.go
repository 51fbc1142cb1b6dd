package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2014, 8, 1, 8, 0, 0, 0, time.UTC)

func validRecord() Record {
	return Record{
		UserID:  42,
		Start:   t0,
		End:     t0.Add(5 * time.Minute),
		TowerID: 7,
		Address: "No.500 Century Road, Pudong District, Shanghai (BS-00007)",
		Bytes:   123456,
		Tech:    TechLTE,
	}
}

func TestRecordValidate(t *testing.T) {
	if r := validRecord(); r.Validate() != nil || !r.valid() {
		t.Fatalf("valid record rejected: %v (valid() = %v)", r.Validate(), r.valid())
	}
	mutations := []struct {
		name   string
		mutate func(*Record)
	}{
		{"negative user", func(r *Record) { r.UserID = -1 }},
		{"negative tower", func(r *Record) { r.TowerID = -2 }},
		{"negative bytes", func(r *Record) { r.Bytes = -5 }},
		{"zero start", func(r *Record) { r.Start = time.Time{} }},
		{"zero end", func(r *Record) { r.End = time.Time{} }},
		{"end before start", func(r *Record) { r.End = r.Start.Add(-time.Minute) }},
		{"bad tech", func(r *Record) { r.Tech = "5G" }},
	}
	for _, m := range mutations {
		r := validRecord()
		m.mutate(&r)
		if err := r.Validate(); err == nil || r.valid() {
			t.Errorf("%s: Validate() = %v, valid() = %v; want an error and false", m.name, err, r.valid())
		}
	}
}

// The cleaner asks valid() once per record, so neither answer may
// allocate: Validate builds an error per bad row, which a poisoned feed
// would make it pay for every record.
func TestRecordValidDoesNotAllocate(t *testing.T) {
	good, bad := validRecord(), validRecord()
	bad.Bytes = -1
	c := NewCleanerWindow(0)
	c.Observe(good) // from here on, good is a duplicate: dropped like bad
	for _, r := range []Record{good, bad} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, forwarded := c.Observe(r); forwarded {
				t.Fatalf("record %+v forwarded", r)
			}
		})
		if allocs != 0 {
			t.Errorf("valid() = %v: %v allocations per observed record, want 0", r.valid(), allocs)
		}
	}
	if want := (CleanStats{Input: 203, Invalid: 101, Duplicates: 101, Output: 1}); c.Stats() != want {
		t.Errorf("stats %+v, want %+v", c.Stats(), want)
	}
}

func TestCSVRoundTrip(t *testing.T) {
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
	back, skipped, err := readCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d, want 0", skipped)
	}
	if len(back) != len(records) {
		t.Fatalf("round trip length %d, want %d", len(back), len(records))
	}
	for i := range records {
		if !back[i].Start.Equal(records[i].Start) || !back[i].End.Equal(records[i].End) {
			t.Errorf("record %d times differ", i)
		}
		if back[i].UserID != records[i].UserID || back[i].TowerID != records[i].TowerID ||
			back[i].Bytes != records[i].Bytes || back[i].Tech != records[i].Tech ||
			back[i].Address != records[i].Address {
			t.Errorf("record %d differs: %+v vs %+v", i, back[i], records[i])
		}
	}
}

func TestReadCSVMalformedRows(t *testing.T) {
	csvData := strings.Join([]string{
		"user_id,start,end,tower_id,address,bytes,tech",
		"1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE",
		"not-a-number,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE",
		"2,bad-time,2014-08-01T08:05:00Z,7,addr,100,LTE",
		"3,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,-5,LTE",
		"4,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,5G",
		"5,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,3G",
	}, "\n")
	records, skipped, err := readCSV(strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Errorf("parsed %d records, want 2", len(records))
	}
	if skipped != 4 {
		t.Errorf("skipped = %d, want 4", skipped)
	}
}

func TestReadCSVBadHeader(t *testing.T) {
	if _, _, err := readCSV(strings.NewReader("foo,bar\n1,2\n")); err == nil {
		t.Error("bad header should fail")
	}
	if _, _, err := readCSV(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
}

func TestCleanRemovesDuplicatesAndConflicts(t *testing.T) {
	base := validRecord()
	dup := base
	conflictSmall := base
	conflictSmall.Bytes = base.Bytes / 2
	other := base
	other.UserID = 99
	other.Bytes = 777
	invalid := base
	invalid.Bytes = -1

	cleaned, stats := Clean([]Record{base, dup, conflictSmall, other, invalid})
	if stats.Input != 5 {
		t.Errorf("Input = %d, want 5", stats.Input)
	}
	if stats.Invalid != 1 {
		t.Errorf("Invalid = %d, want 1", stats.Invalid)
	}
	if stats.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", stats.Duplicates)
	}
	if stats.Conflicts != 1 {
		t.Errorf("Conflicts = %d, want 1", stats.Conflicts)
	}
	if stats.Output != 2 || len(cleaned) != 2 {
		t.Fatalf("Output = %d (%d records), want 2", stats.Output, len(cleaned))
	}
	// The conflicting pair keeps the larger byte count.
	var keptBase bool
	for _, r := range cleaned {
		if r.UserID == base.UserID && r.Bytes == base.Bytes {
			keptBase = true
		}
	}
	if !keptBase {
		t.Error("conflict resolution should keep the larger byte count")
	}
}

func TestCleanKeepsLargerConflictRegardlessOfOrder(t *testing.T) {
	big := validRecord()
	small := big
	small.Bytes = 10
	for _, order := range [][]Record{{big, small}, {small, big}} {
		cleaned, stats := Clean(order)
		if len(cleaned) != 1 || cleaned[0].Bytes != big.Bytes {
			t.Errorf("order %v: kept %v", order, cleaned)
		}
		if stats.Conflicts != 1 {
			t.Errorf("Conflicts = %d, want 1", stats.Conflicts)
		}
	}
}

func TestCleanSortsOutput(t *testing.T) {
	r1 := validRecord()
	r2 := validRecord()
	r2.Start = r1.Start.Add(time.Hour)
	r2.End = r2.Start.Add(time.Minute)
	r3 := validRecord()
	r3.UserID = 1
	cleaned, _ := Clean([]Record{r2, r1, r3})
	if len(cleaned) != 3 {
		t.Fatalf("cleaned = %d records", len(cleaned))
	}
	for i := 1; i < len(cleaned); i++ {
		if cleaned[i].Start.Before(cleaned[i-1].Start) {
			t.Error("output not sorted by start time")
		}
	}
	if cleaned[0].UserID != 1 {
		t.Error("ties should be broken by user id")
	}
}

// Property: Clean is idempotent — cleaning an already-clean log changes
// nothing.
func TestCleanIdempotentProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%20) + 1
		records := make([]Record, 0, n)
		for i := 0; i < n; i++ {
			r := validRecord()
			r.UserID = i % 5
			r.TowerID = i % 3
			r.Start = t0.Add(time.Duration(i%4) * time.Minute)
			r.End = r.Start.Add(time.Minute)
			r.Bytes = int64(100 + i)
			records = append(records, r)
		}
		once, _ := Clean(records)
		twice, stats := Clean(once)
		if stats.Duplicates != 0 || stats.Conflicts != 0 || stats.Invalid != 0 {
			return false
		}
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
