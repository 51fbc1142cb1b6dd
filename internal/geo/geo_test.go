package geo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	points := []Point{{31.1, 121.3}, {31.4, 121.6}, {31.2, 121.2}}
	box, err := NewBoundingBox(points)
	if err != nil {
		t.Fatal(err)
	}
	if box.MinLat != 31.1 || box.MaxLat != 31.4 || box.MinLon != 121.2 || box.MaxLon != 121.6 {
		t.Errorf("box = %+v", box)
	}
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
	if _, err := NewBoundingBox(nil); err == nil {
		t.Error("empty bounding box should fail")
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

func TestPointIndexWithin(t *testing.T) {
	center := Point{Lat: 31.2, Lon: 121.4}
	// ~0.001 degree latitude ≈ 111 m.
	points := []Point{
		center,
		{Lat: 31.2005, Lon: 121.4}, // ~55 m
		{Lat: 31.2020, Lon: 121.4}, // ~222 m
		{Lat: 31.2100, Lon: 121.4}, // ~1.1 km
		{Lat: 31.2, Lon: 121.4010}, // ~95 m
		{Lat: 31.25, Lon: 121.45},  // far
	}
	idx, err := NewPointIndex(points, 200)
	if err != nil {
		t.Fatal(err)
	}
	got := within(idx, center, 200)
	want := map[int]bool{0: true, 1: true, 4: true}
	if len(got) != len(want) {
		t.Fatalf("Within(200m) = %v, want indices %v", got, want)
	}
	for _, i := range got {
		if !want[i] {
			t.Errorf("unexpected index %d in radius query", i)
		}
	}
	if n := idx.CountWithin(center, 2000); n != 5 {
		t.Errorf("CountWithin(2km) = %d, want 5", n)
	}
	if _, err := NewPointIndex(nil, 200); err == nil {
		t.Error("empty index should fail")
	}
	if _, err := NewPointIndex(points, 0); err == nil {
		t.Error("zero radius should fail")
	}
}

// within collects the indices PointIndex.visit yields for a radius query,
// in visiting order: what CountWithin counts, kept so the tests can check
// which points match and not only how many.
func within(idx *PointIndex, center Point, radiusMeters float64) []int {
	var out []int
	idx.visit(center, radiusMeters, func(i int) { out = append(out, i) })
	return out
}

// withinOracle is the radius scan PointIndex.visit ran before its window
// was sized per axis: a fixed square of bucket rings around the centre's
// bucket, a haversine on every candidate. Its window is the same number of
// degrees wide on both axes, so east-west it reaches only rings × the
// expected radius × cos(lat) on the ground; complete reports whether that
// still covers the query radius (for a query at the expected radius, up to
// 60°). Beyond that it silently misses points.
func withinOracle(idx *PointIndex, center Point, radiusMeters, expectedRadiusMeters float64) (out []int, complete bool) {
	rings := int(math.Ceil(radiusMeters/expectedRadiusMeters)) + 1
	reach := float64(rings) * expectedRadiusMeters * math.Cos((math.Abs(center.Lat)+0.05)*math.Pi/180)
	complete = reach >= 1.01*radiusMeters
	key := idx.bucketKey(center)
	for dr := -rings; dr <= rings; dr++ {
		for dc := -rings; dc <= rings; dc++ {
			for _, i := range idx.buckets[[2]int{key[0] + dr, key[1] + dc}] {
				if DistanceMeters(center, idx.points[i]) <= radiusMeters {
					out = append(out, i)
				}
			}
		}
	}
	return out, complete
}

// Property: the grid radius query returns exactly the same set as a brute
// force scan — at every latitude, not only where a degree of longitude is
// about as long as a degree of latitude, for query radii below, at and
// above the one the index was built for — and, wherever the fixed-window
// scan it replaced is complete, the same indices in the same order.
func TestPointIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	points := make([]Point, 500)
	for i := range points {
		points[i] = Point{Lat: 31 + rng.Float64()*0.5, Lon: 121 + rng.Float64()*0.5}
	}
	idx, err := NewPointIndex(points, 300)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		center := Point{Lat: 31 + rng.Float64()*0.5, Lon: 121 + rng.Float64()*0.5}
		radius := 100 + rng.Float64()*900
		got := make(map[int]bool)
		for _, i := range within(idx, center, radius) {
			got[i] = true
		}
		for i, p := range points {
			inRadius := DistanceMeters(center, p) <= radius
			if inRadius != got[i] {
				t.Fatalf("trial %d: point %d mismatch (brute=%v index=%v)", trial, i, inRadius, got[i])
			}
		}
	}

	const built = 200.0
	for _, lat := range []float64{0, 31.2, 55, 62, 65, 70, -65, 89.9} {
		t.Run(fmt.Sprintf("lat=%g", lat), func(t *testing.T) {
			// A dense patch a few kilometres across, kept off the pole
			// itself: ±0.02° of latitude, and the longitude span that
			// covers the same ground distance at this latitude.
			lonSpan := math.Min(0.04/math.Cos(lat*math.Pi/180), 20)
			draw := func() Point {
				return Point{Lat: lat + (rng.Float64()-0.5)*0.04, Lon: 20 + (rng.Float64()-0.5)*lonSpan}
			}
			points := make([]Point, 4000)
			for i := range points {
				points[i] = draw()
			}
			idx, err := NewPointIndex(points, built)
			if err != nil {
				t.Fatal(err)
			}
			compared := 0
			for trial := 0; trial < 60; trial++ {
				center := draw()
				for _, radius := range []float64{50, 200, 500} {
					var brute []int
					for i, p := range points {
						if DistanceMeters(center, p) <= radius {
							brute = append(brute, i)
						}
					}
					got := within(idx, center, radius)
					if n := idx.CountWithin(center, radius); n != len(brute) || len(got) != len(brute) {
						t.Fatalf("%v radius %g: CountWithin = %d, Within finds %d, brute force %d", center, radius, n, len(got), len(brute))
					}
					sorted := slices.Clone(got)
					slices.Sort(sorted)
					if !slices.Equal(sorted, brute) {
						t.Fatalf("%v radius %g: Within = %v, brute force %v", center, radius, sorted, brute)
					}
					if want, complete := withinOracle(idx, center, radius, built); complete {
						compared++
						if !slices.Equal(got, want) {
							t.Fatalf("%v radius %g: Within = %v, fixed-window scan %v (same set, different order)", center, radius, got, want)
						}
					}
				}
			}
			if math.Abs(lat) <= 55 && compared < 120 {
				t.Errorf("only %d of 180 queries were compared with the fixed-window scan", compared)
			}
		})
	}
}

// A query far from every indexed point, or with no usable radius, scans
// nothing and finds nothing; one whose disc covers a pole has no longitude
// bound and still terminates on the occupied buckets.
func TestPointIndexDegenerateQueries(t *testing.T) {
	points := []Point{{Lat: 89.9995, Lon: -170}, {Lat: 89.9995, Lon: 10}, {Lat: 89.9995, Lon: 100}, {Lat: 89.5, Lon: 10}}
	idx, err := NewPointIndex(points, 200)
	if err != nil {
		t.Fatal(err)
	}
	// The first three points ring the pole ~56 m from it; all lie within
	// 200 m of one another across it.
	if got := within(idx, points[1], 200); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("across the pole: Within = %v, want [0 1 2]", got)
	}
	if n := idx.CountWithin(Point{Lat: -40, Lon: 10}, 200); n != 0 {
		t.Errorf("far query counted %d points", n)
	}
	if n := idx.CountWithin(points[3], -1); n != 0 {
		t.Errorf("negative radius counted %d points", n)
	}
	if n := idx.CountWithin(points[3], 0); n != 1 {
		t.Errorf("zero radius counted %d points, want the coincident one", n)
	}
}

func BenchmarkPointIndexWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	points := make([]Point, 10000)
	for i := range points {
		points[i] = Point{Lat: 31 + rng.Float64()*0.5, Lon: 121 + rng.Float64()*0.5}
	}
	idx, err := NewPointIndex(points, 200)
	if err != nil {
		b.Fatal(err)
	}
	center := Point{Lat: 31.25, Lon: 121.25}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.CountWithin(center, 200)
	}
}
