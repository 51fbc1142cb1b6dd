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
		{TowerID: 1, Address: "No.500 Century Road, Pudong District, Shanghai (BS-00001)", Location: geo.Point{Lat: 31.2304, Lon: 121.4737}, Resolved: true},
		{TowerID: 7, Address: "No.12 Nanjing Road, Huangpu District, Shanghai (BS-00007)", Location: geo.Point{Lat: 31.2400, Lon: 121.4800}, Resolved: true},
	}
	var buf bytes.Buffer
	if err := WriteTowersCSV(&buf, towers); err != nil {
		t.Fatal(err)
	}
	back, geocoder, err := ReadTowersCSV(&buf)
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
		if !back[i].Resolved {
			t.Errorf("tower %d should be marked resolved", i)
		}
	}
	// The geocoder is populated with the addresses.
	p, err := geocoder.Resolve(towers[0].Address)
	if err != nil {
		t.Fatalf("geocoder missing address: %v", err)
	}
	if geo.DistanceMeters(p, towers[0].Location) > 1 {
		t.Error("geocoder returned wrong location")
	}
}

func TestReadTowersCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"foo,bar,baz,qux\n",
		"tower_id,address,lat,lon\nnot-a-number,addr,31,121\n",
		"tower_id,address,lat,lon\n1,addr,bad,121\n",
		"tower_id,address,lat,lon\n1,addr,31,bad\n",
		"tower_id,address,lat,lon\n1,addr,99,121\n", // invalid latitude for geocoder
	}
	for i, c := range cases {
		if _, _, err := ReadTowersCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
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
