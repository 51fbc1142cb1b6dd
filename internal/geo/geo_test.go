package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointValid(t *testing.T) {
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{31.23, 121.47}, true}, // Shanghai
		{Point{91, 0}, false},
		{Point{-91, 0}, false},
		{Point{0, 181}, false},
		{Point{0, -181}, false},
		{Point{math.NaN(), 0}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	// Shanghai People's Square to Beijing Tiananmen ≈ 1068 km.
	shanghai := Point{Lat: 31.2304, Lon: 121.4737}
	beijing := Point{Lat: 39.9042, Lon: 116.4074}
	d := HaversineKm(shanghai, beijing)
	if d < 1050 || d > 1090 {
		t.Errorf("Shanghai-Beijing = %g km, want ~1068", d)
	}
	// Identical points are zero metres apart.
	if DistanceMeters(shanghai, shanghai) != 0 {
		t.Error("distance to self should be 0")
	}
	// One degree of latitude ≈ 111.19 km.
	d = HaversineKm(Point{Lat: 31, Lon: 121}, Point{Lat: 32, Lon: 121})
	if math.Abs(d-111.19) > 0.5 {
		t.Errorf("1 degree latitude = %g km, want ~111.19", d)
	}
}

// Property: haversine distance is symmetric, non-negative, and satisfies
// the triangle inequality.
func TestHaversineProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func(_ uint8) bool {
		randPoint := func() Point {
			return Point{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*360 - 180}
		}
		a, b, c := randPoint(), randPoint(), randPoint()
		dab, dba := HaversineKm(a, b), HaversineKm(b, a)
		if dab < 0 || math.Abs(dab-dba) > 1e-9 {
			return false
		}
		return HaversineKm(a, c) <= dab+HaversineKm(b, c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBoundingBox(t *testing.T) {
	box := BoundingBox{MinLat: 31.1, MinLon: 121.2, MaxLat: 31.4, MaxLon: 121.6}
	if !box.Contains(Point{31.25, 121.4}) {
		t.Error("box should contain interior point")
	}
	if box.Contains(Point{30, 121.4}) {
		t.Error("box should not contain outside point")
	}
	c := box.Center()
	if math.Abs(c.Lat-31.25) > 1e-9 || math.Abs(c.Lon-121.4) > 1e-9 {
		t.Errorf("center = %v", c)
	}
	if box.AreaKm2() <= 0 {
		t.Error("area should be positive")
	}
}

func TestGridBasics(t *testing.T) {
	box := BoundingBox{MinLat: 31, MaxLat: 32, MinLon: 121, MaxLon: 122}
	g, err := NewGrid(box, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Add(Point{31.05, 121.05}, 5) {
		t.Error("Add inside box should succeed")
	}
	if g.Add(Point{35, 121}, 5) {
		t.Error("Add outside box should fail")
	}
	if g.Cells[0] != 5 {
		t.Errorf("cell(0,0) = %g, want 5", g.Cells[0])
	}
	// Boundary point maps into the last cell, not out of range.
	if !g.Add(Point{32, 122}, 1) {
		t.Error("Add on max corner should succeed")
	}
	if g.Cells[99] != 1 {
		t.Errorf("cell(9,9) = %g, want 1", g.Cells[99])
	}
	if g.Total() != 6 {
		t.Errorf("Total = %g, want 6", g.Total())
	}
	row, col, val := g.MaxCell()
	if row != 0 || col != 0 || val != 5 {
		t.Errorf("MaxCell = (%d,%d,%g), want (0,0,5)", row, col, val)
	}
	center := g.CellCenter(0, 0)
	if math.Abs(center.Lat-31.05) > 1e-9 || math.Abs(center.Lon-121.05) > 1e-9 {
		t.Errorf("CellCenter = %v", center)
	}
	if g.CellAreaKm2() <= 0 {
		t.Error("cell area should be positive")
	}
	dens := g.Densities()
	if dens[0] <= 0 {
		t.Error("density of non-empty cell should be positive")
	}
}

func TestGridErrors(t *testing.T) {
	box := BoundingBox{MinLat: 31, MaxLat: 32, MinLon: 121, MaxLon: 122}
	if _, err := NewGrid(box, 0, 10); err == nil {
		t.Error("zero rows should fail")
	}
	if _, err := NewGrid(BoundingBox{MinLat: 32, MaxLat: 31, MinLon: 121, MaxLon: 122}, 5, 5); err == nil {
		t.Error("degenerate box should fail")
	}
}

// haversineTwoSinKm is the haversine formula written out with each sine
// computed twice, the reference HaversineKm is checked against.
func haversineTwoSinKm(a, b Point) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(s)))
}

// HaversineKm computes each sine and cosine once; its distances, near
// and far, must equal the reference formula's bit for bit.
func TestHaversineMatchesTwoSinFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 200000; i++ {
		a := Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		b := Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		if i%2 == 0 {
			// A neighbour within a few hundred metres, as in a POI query.
			b = Point{Lat: math.Max(-90, math.Min(90, a.Lat+(rng.Float64()-0.5)*0.01)), Lon: a.Lon + (rng.Float64()-0.5)*0.01}
		}
		if got, want := HaversineKm(a, b), haversineTwoSinKm(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("HaversineKm(%v, %v) = %v, two-sine formula %v", a, b, got, want)
		}
	}
}
