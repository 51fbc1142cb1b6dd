package poi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/geo"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Resident:      "resident",
		Transport:     "transport",
		Office:        "office",
		Entertainment: "entertainment",
		Type(9):       "poi(9)",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(typ), got, want)
		}
	}
}

func TestCountsTotal(t *testing.T) {
	c := Counts{1, 2, 3, 4}
	if c.Total() != 10 {
		t.Errorf("Total = %g, want 10", c.Total())
	}
}

// samplePOIs builds a tiny POI layout: a cluster of office POIs at the
// centre, resident POIs ~500 m north, and one transport POI at the centre.
func samplePOIs() ([]POI, geo.Point, geo.Point) {
	center := geo.Point{Lat: 31.2300, Lon: 121.4700}
	north := geo.Point{Lat: 31.2345, Lon: 121.4700} // ~500 m north
	var pois []POI
	for i := 0; i < 10; i++ {
		pois = append(pois, POI{Type: Office, Location: geo.Point{Lat: center.Lat + float64(i)*0.00005, Lon: center.Lon}})
	}
	for i := 0; i < 6; i++ {
		pois = append(pois, POI{Type: Resident, Location: geo.Point{Lat: north.Lat + float64(i)*0.00005, Lon: north.Lon}})
	}
	pois = append(pois, POI{Type: Transport, Location: center})
	return pois, center, north
}

func TestCounterCountWithin(t *testing.T) {
	pois, center, north := samplePOIs()
	counter, err := NewCounter(pois, DefaultRadiusMeters)
	if err != nil {
		t.Fatal(err)
	}
	atCenter := counter.CountWithin(center, DefaultRadiusMeters)
	if atCenter[Office] != 10 {
		t.Errorf("office POIs at centre = %g, want 10", atCenter[Office])
	}
	if atCenter[Transport] != 1 {
		t.Errorf("transport POIs at centre = %g, want 1", atCenter[Transport])
	}
	if atCenter[Resident] != 0 {
		t.Errorf("resident POIs at centre = %g, want 0 (they are 500 m away)", atCenter[Resident])
	}
	atNorth := counter.CountWithin(north, DefaultRadiusMeters)
	if atNorth[Resident] != 6 {
		t.Errorf("resident POIs at north point = %g, want 6", atNorth[Resident])
	}
	// Entertainment type has no POIs at all; count must be zero, not panic.
	if atCenter[Entertainment] != 0 {
		t.Errorf("entertainment count = %g, want 0", atCenter[Entertainment])
	}
	all := counter.CountAll([]geo.Point{center, north}, DefaultRadiusMeters)
	if len(all) != 2 || all[0] != atCenter || all[1] != atNorth {
		t.Errorf("CountAll mismatch: %v", all)
	}

	// At every latitude the index is tested at, the per-type counts equal
	// a brute-force scan with DistanceMeters, for radii below, at and
	// above the one the counter was built for.
	rng := rand.New(rand.NewSource(19))
	for _, lat := range []float64{0, 31.2, 55, 62, 65, 70, -65, 89.9} {
		t.Run(fmt.Sprintf("lat=%g", lat), func(t *testing.T) {
			lonSpan := math.Min(0.04/math.Cos(lat*math.Pi/180), 20)
			draw := func() geo.Point {
				return geo.Point{Lat: lat + (rng.Float64()-0.5)*0.04, Lon: 20 + (rng.Float64()-0.5)*lonSpan}
			}
			pois := make([]POI, 3000)
			for i := range pois {
				// Skewed type mix, and every tenth POI on top of another.
				pois[i] = POI{Type: Type(min(rng.Intn(6), 3)), Location: draw()}
				if i%10 == 9 {
					pois[i].Location = pois[rng.Intn(i)].Location
				}
			}
			counter, err := NewCounter(pois, DefaultRadiusMeters)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 40; trial++ {
				center := draw()
				for _, radius := range []float64{50, DefaultRadiusMeters, 500} {
					var want Counts
					for _, p := range pois {
						if geo.DistanceMeters(center, p.Location) <= radius {
							want[p.Type]++
						}
					}
					if got := counter.CountWithin(center, radius); got != want {
						t.Fatalf("%v radius %g: CountWithin = %v, brute force %v", center, radius, got, want)
					}
				}
			}
		})
	}
}

// A POI at a non-finite location would make the index's bounding box NaN
// and every cell window empty, so every count of its type would read 0
// with no error; NewCounter refuses it and names it.
func TestNewCounterRejectsInvalidLocation(t *testing.T) {
	at := geo.Point{Lat: 31.2, Lon: 121.4}
	pois := []POI{{Type: Resident, Location: at}, {Type: Resident, Location: geo.Point{Lat: 31.2001, Lon: 121.4}}}
	counter, err := NewCounter(pois, DefaultRadiusMeters)
	if err != nil {
		t.Fatal(err)
	}
	if got := counter.CountWithin(at, DefaultRadiusMeters); got != (Counts{2, 0, 0, 0}) {
		t.Fatalf("two resident POIs count %v", got)
	}
	for _, bad := range []geo.Point{{Lat: math.NaN(), Lon: 121.4}, {Lat: 31.2, Lon: math.Inf(-1)}, {Lat: 95, Lon: 121.4}} {
		withBad := append(slices.Clone(pois), POI{Type: Resident, Location: bad})
		counter, err := NewCounter(withBad, DefaultRadiusMeters)
		if err == nil {
			t.Errorf("POI at %v accepted; the tower counts %v", bad, counter.CountWithin(at, DefaultRadiusMeters))
		} else if !strings.Contains(err.Error(), "point 2 ") {
			t.Errorf("POI at %v: error %q does not name POI 2", bad, err)
		}
	}
}

// NewCounter allocates the index's flat arrays — the points in bucket
// order, their latitude cosines and types, and one int32 offset per POI —
// and nothing that grows with the bounding box: at most 32 bytes per POI.
func TestNewCounterAllocationCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pois := make([]POI, 100000)
	for i := range pois {
		pois[i] = POI{Type: Type(rng.Intn(NumTypes)), Location: geo.Point{Lat: 31 + rng.Float64()*0.5, Lon: 121 + rng.Float64()*0.5}}
	}
	// A far outlier stretches the box over a continent of empty cells.
	pois[0].Location = geo.Point{Lat: 51.5, Lon: -0.1}
	best := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewCounter(pois, DefaultRadiusMeters); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if perPOI := float64(best) / float64(len(pois)); perPOI > 32 {
		t.Errorf("NewCounter allocated %d B for %d POIs, %.1f B per POI; want at most 32", best, len(pois), perPOI)
	}
}

func TestNewCounterErrors(t *testing.T) {
	pois, _, _ := samplePOIs()
	if _, err := NewCounter(pois, 0); err == nil {
		t.Error("zero radius should fail")
	}
	bad := []POI{{Type: Type(9), Location: geo.Point{Lat: 31, Lon: 121}}}
	if _, err := NewCounter(bad, 200); err == nil {
		t.Error("invalid POI type should fail")
	}
	// No POIs at all is fine — every count is zero.
	counter, err := NewCounter(nil, 200)
	if err != nil {
		t.Fatalf("empty counter: %v", err)
	}
	c := counter.CountWithin(geo.Point{Lat: 31, Lon: 121}, 200)
	if c.Total() != 0 {
		t.Error("empty counter should count zero")
	}
}

func TestMinMaxNormalize(t *testing.T) {
	counts := []Counts{
		{0, 10, 5, 100},
		{10, 10, 10, 0},
		{5, 10, 0, 50},
	}
	norm, err := MinMaxNormalize(counts)
	if err != nil {
		t.Fatal(err)
	}
	// Resident: 0→0, 10→1, 5→0.5. Transport constant → all zeros.
	if norm[0][Resident] != 0 || norm[1][Resident] != 1 || norm[2][Resident] != 0.5 {
		t.Errorf("resident normalisation wrong: %v", norm)
	}
	for i := range norm {
		if norm[i][Transport] != 0 {
			t.Errorf("constant transport column should normalise to 0, got %g", norm[i][Transport])
		}
	}
	for _, row := range norm {
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Errorf("normalised value %g outside [0,1]", v)
			}
		}
	}
	if _, err := MinMaxNormalize(nil); !errors.Is(err, ErrNoCounts) {
		t.Errorf("empty input: got %v, want ErrNoCounts", err)
	}
}

func TestAverageByGroup(t *testing.T) {
	counts := []Counts{
		{1, 0, 0, 0},
		{3, 0, 0, 0},
		{0, 0, 10, 0},
	}
	groups := [][]int{{0, 1}, {2}, {}}
	avg, err := AverageByGroup(counts, groups)
	if err != nil {
		t.Fatal(err)
	}
	if avg[0][Resident] != 2 {
		t.Errorf("group 0 resident avg = %g, want 2", avg[0][Resident])
	}
	if avg[1][Office] != 10 {
		t.Errorf("group 1 office avg = %g, want 10", avg[1][Office])
	}
	if avg[2].Total() != 0 {
		t.Error("empty group should average to zero")
	}
	if _, err := AverageByGroup(counts, [][]int{{7}}); err == nil {
		t.Error("out-of-range index should fail")
	}
}

func TestRowShares(t *testing.T) {
	rows := []Counts{{1, 1, 1, 1}, {0, 0, 0, 0}, {2, 0, 0, 2}}
	shares := RowShares(rows)
	for typ := 0; typ < NumTypes; typ++ {
		if shares[0][typ] != 0.25 {
			t.Errorf("uniform row share = %g, want 0.25", shares[0][typ])
		}
	}
	if shares[1].Total() != 0 {
		t.Error("zero row should stay zero")
	}
	if shares[2][Resident] != 0.5 || shares[2][Entertainment] != 0.5 {
		t.Errorf("row 2 shares = %v", shares[2])
	}
}

func TestTFIDF(t *testing.T) {
	// Four towers; transport POIs appear around only one of them, so the
	// transport type gets the largest IDF and dominates that tower's
	// TF-IDF despite its small raw count.
	counts := []Counts{
		{50, 0, 5, 5},
		{40, 0, 10, 5},
		{30, 2, 10, 5},
		{45, 0, 8, 5},
	}
	tfidf, err := TFIDF(counts)
	if err != nil {
		t.Fatal(err)
	}
	// Resident appears around every tower → IDF = log(4/4) = 0.
	for i := range tfidf {
		if tfidf[i][Resident] != 0 {
			t.Errorf("tower %d resident TF-IDF = %g, want 0 (type appears everywhere)", i, tfidf[i][Resident])
		}
	}
	// Transport IDF = log(4/1); TF = log(1+2).
	wantTransport := math.Log(4) * math.Log(3)
	if math.Abs(tfidf[2][Transport]-wantTransport) > 1e-12 {
		t.Errorf("transport TF-IDF = %g, want %g", tfidf[2][Transport], wantTransport)
	}
	if tfidf[0][Transport] != 0 {
		t.Error("towers with zero transport POIs should have zero transport TF-IDF")
	}
	if _, err := TFIDF(nil); !errors.Is(err, ErrNoCounts) {
		t.Errorf("empty input: got %v, want ErrNoCounts", err)
	}
}

func TestNormalizeTFIDFAndNTFIDF(t *testing.T) {
	counts := []Counts{
		{50, 0, 5, 5},
		{40, 0, 10, 5},
		{30, 2, 10, 5},
		{45, 0, 8, 5},
	}
	ntf, err := NTFIDF(counts)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range ntf {
		total := row.Total()
		if total == 0 {
			continue
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("tower %d NTF-IDF sums to %g, want 1", i, total)
		}
		for _, v := range row {
			if v < 0 {
				t.Errorf("tower %d negative NTF-IDF %g", i, v)
			}
		}
	}
	// A tower with no POIs at all stays all-zero after normalisation.
	withEmpty := append(counts, Counts{})
	ntf, err = NTFIDF(withEmpty)
	if err != nil {
		t.Fatal(err)
	}
	if ntf[len(ntf)-1].Total() != 0 {
		t.Error("POI-free tower should have all-zero NTF-IDF")
	}
}

func TestDominantType(t *testing.T) {
	typ, val := DominantType(Counts{1, 5, 3, 2})
	if typ != Transport || val != 5 {
		t.Errorf("DominantType = (%v, %g), want (transport, 5)", typ, val)
	}
	typ, _ = DominantType(Counts{2, 2, 2, 2})
	if typ != Resident {
		t.Errorf("tie should resolve to lowest index, got %v", typ)
	}
}

func TestValidateCounts(t *testing.T) {
	good := []Counts{{1, 2, 3, 4}}
	if err := ValidateCounts(good); err != nil {
		t.Errorf("valid counts rejected: %v", err)
	}
	if err := ValidateCounts([]Counts{{-1, 0, 0, 0}}); err == nil {
		t.Error("negative count should fail")
	}
	if err := ValidateCounts([]Counts{{math.NaN(), 0, 0, 0}}); err == nil {
		t.Error("NaN count should fail")
	}
	if err := ValidateCounts([]Counts{{math.Inf(1), 0, 0, 0}}); err == nil {
		t.Error("Inf count should fail")
	}
}
