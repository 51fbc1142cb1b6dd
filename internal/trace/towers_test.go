package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

func TestTowersCSVRoundTrip(t *testing.T) {
	towers := []TowerInfo{
		{TowerID: 1, Address: "No.500 Century Road, Pudong District, Shanghai (BS-00001)", Location: geo.Point{Lat: 31.2304, Lon: 121.4737}},
		{TowerID: 7, Address: "No.12 Nanjing Road, Huangpu District, Shanghai (BS-00007)", Location: geo.Point{Lat: 31.2400, Lon: 121.4800}},
	}
	var buf bytes.Buffer
	if err := WriteTowersCSV(&buf, towers); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTowersCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip length %d", len(back))
	}
	for i := range towers {
		if back[i].TowerID != towers[i].TowerID || back[i].Address != towers[i].Address {
			t.Errorf("tower %d metadata differs", i)
		}
		if geo.DistanceMeters(back[i].Location, towers[i].Location) > 1 {
			t.Errorf("tower %d location drifted", i)
		}
	}
}

func TestReadTowersCSVErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "header"},
		{"foo,bar,baz,qux\n", "header"},
		{"tower_id,address,lat,lon\nnot-a-number,addr,31,121\n", "not-a-number"},
		{"tower_id,address,lat,lon\n1,addr,bad,121\n", "tower 1 latitude"},
		{"tower_id,address,lat,lon\n1,addr,31,bad\n", "tower 1 longitude"},
		{"tower_id,address,lat,lon\n1,addr,99,121\n", "tower 1 has invalid coordinates"},
		{"tower_id,address,lat,lon\n1,  ,31,121\n", "tower 1 has a blank address"},
		{"tower_id,address,lat,lon\n4,addr,31,121\n2,b,31,121\n4,c,31.1,121\n", "tower 4 listed twice"},
	}
	for i, c := range cases {
		_, err := ReadTowersCSV(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %v, want one containing %q", i, err, c.want)
		}
	}
}

func TestCSVWriterStreaming(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	if w.Count() != 0 {
		t.Error("fresh writer should have count 0")
	}
	rec := Record{
		UserID:  1,
		Start:   time.Date(2014, 8, 1, 8, 0, 0, 0, time.UTC),
		End:     time.Date(2014, 8, 1, 8, 5, 0, 0, time.UTC),
		TowerID: 3,
		Address: "addr",
		Bytes:   42,
		Tech:    Tech3G,
	}
	for i := 0; i < 3; i++ {
		r := rec
		r.UserID = i
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d, want 3", w.Count())
	}
	// The streamed output parses back with the batch reader.
	records, skipped, err := readCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(records) != 3 {
		t.Errorf("parsed %d records (%d skipped)", len(records), skipped)
	}
	if records[2].UserID != 2 || records[2].Bytes != 42 {
		t.Errorf("record content wrong: %+v", records[2])
	}
}
