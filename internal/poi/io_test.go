package poi

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geo"
)

func TestPOICSVRoundTrip(t *testing.T) {
	pois := []POI{
		{Type: Resident, Location: geo.Point{Lat: 31.21, Lon: 121.44}, Name: "Riverside Apartments"},
		{Type: Office, Location: geo.Point{Lat: 31.23, Lon: 121.50}, Name: "Tower One"},
		{Type: Transport, Location: geo.Point{Lat: 31.25, Lon: 121.46}},
		{Type: Entertainment, Location: geo.Point{Lat: 31.15, Lon: 121.66}, Name: `Mall "Grand", East Wing`},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pois); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pois) {
		t.Fatalf("round trip length %d, want %d", len(back), len(pois))
	}
	for i := range pois {
		if back[i].Type != pois[i].Type || back[i].Name != pois[i].Name {
			t.Errorf("POI %d differs: %+v vs %+v", i, back[i], pois[i])
		}
		if geo.DistanceMeters(back[i].Location, pois[i].Location) > 1 {
			t.Errorf("POI %d location drifted", i)
		}
	}
}

func TestReadPOICSVErrors(t *testing.T) {
	cases := []string{
		"",
		"a,b,c,d\n",
		"type,lat,lon,name\nmuseum,31,121,x\n",
		"type,lat,lon,name\noffice,bad,121,x\n",
		"type,lat,lon,name\noffice,31,bad,x\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// A row that parses but is not a valid location is refused, with its
// line: a NaN coordinate would zero every count of its POI type.
func TestReadCSVRejectsInvalidCoordinates(t *testing.T) {
	for _, row := range []string{"resident,NaN,121.4,x", "resident,31.2,+Inf,x", "office,90.5,121.4,x", "office,31.2,-180.01,x"} {
		in := "type,lat,lon,name\nresident,31.2,121.4,ok\n" + row + "\n"
		_, err := ReadCSV(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%q: err = %v, want one naming line 3", row, err)
		}
	}
}

func TestParseType(t *testing.T) {
	for _, typ := range Types {
		got, err := ParseType(typ.String())
		if err != nil || got != typ {
			t.Errorf("ParseType(%q) = %v, %v", typ.String(), got, err)
		}
	}
	if _, err := ParseType("museum"); err == nil {
		t.Error("unknown type should fail")
	}
}
