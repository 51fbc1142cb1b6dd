package geo

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The oracle of every PointIndex test is brute force: the points p with
// DistanceMeters(center, p) <= radius, and their per-class counts.

// newIndex indexes the points, labelling point i with class i mod 4 (the
// number of POI types).
func newIndex(points []Point, expectedRadiusMeters float64) (*PointIndex, error) {
	return NewPointIndex(len(points), func(i int) (Point, uint8) { return points[i], uint8(i % 4) }, expectedRadiusMeters)
}

func sortPoints(ps []Point) []Point {
	slices.SortFunc(ps, func(a, b Point) int {
		return cmp.Or(cmp.Compare(a.Lat, b.Lat), cmp.Compare(a.Lon, b.Lon))
	})
	return ps
}

// within returns the points PointIndex.visit yields for a radius query,
// sorted: what CountWithin counts, kept so the tests can check which
// points match and not only how many.
func within(idx *PointIndex, center Point, radiusMeters float64) []Point {
	var out []Point
	idx.visit(center, radiusMeters, func(j int) { out = append(out, idx.points[j]) })
	return sortPoints(out)
}

// bruteWithin returns the points within radiusMeters of the centre,
// sorted, and their counts by class i mod 4.
func bruteWithin(points []Point, center Point, radiusMeters float64) ([]Point, [4]float64) {
	var out []Point
	var counts [4]float64
	for i, p := range points {
		if DistanceMeters(center, p) <= radiusMeters {
			out = append(out, p)
			counts[i%4]++
		}
	}
	return sortPoints(out), counts
}

// checkQuery compares one radius query with brute force: the matched
// points as a multiset and the per-class counts.
func checkQuery(t *testing.T, idx *PointIndex, points []Point, center Point, radiusMeters float64) {
	t.Helper()
	want, wantCounts := bruteWithin(points, center, radiusMeters)
	if got := within(idx, center, radiusMeters); !slices.Equal(got, want) {
		t.Fatalf("%v radius %g: Within = %v, brute force %v", center, radiusMeters, got, want)
	}
	var counts [4]float64
	idx.CountWithin(center, radiusMeters, counts[:])
	if counts != wantCounts {
		t.Fatalf("%v radius %g: CountWithin = %v, brute force %v", center, radiusMeters, counts, wantCounts)
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
	idx, err := newIndex(points, 200)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := within(idx, center, 200), sortPoints([]Point{points[0], points[1], points[4]}); !slices.Equal(got, want) {
		t.Fatalf("Within(200m) = %v, want %v", got, want)
	}
	var counts [4]float64
	idx.CountWithin(center, 200, counts[:])
	if counts != [4]float64{2, 1, 0, 0} {
		t.Errorf("CountWithin(200m) by class = %v, want [2 1 0 0]", counts)
	}
	counts = [4]float64{}
	idx.CountWithin(center, 2000, counts[:])
	if counts != [4]float64{2, 1, 1, 1} {
		t.Errorf("CountWithin(2km) by class = %v, want [2 1 1 1]", counts)
	}
	if _, err := newIndex(nil, 200); err == nil {
		t.Error("empty index should fail")
	}
	for _, r := range []float64{0, -1, math.NaN()} {
		if _, err := newIndex(points, r); err == nil {
			t.Errorf("radius %g should fail", r)
		}
	}
}

// A point that is not a valid location would poison the bounding box the
// cells are measured from (a NaN corner puts every query's window out of
// range), so the index refuses it and names it.
func TestPointIndexRejectsInvalidPoints(t *testing.T) {
	for _, bad := range []Point{{math.NaN(), 121.4}, {31.2, math.NaN()}, {math.Inf(1), 121.4}, {91, 0}, {0, -181}} {
		points := []Point{{31.2, 121.4}, {31.2001, 121.4}, bad}
		if _, err := newIndex(points, 200); err == nil {
			t.Errorf("point %v was indexed", bad)
		}
	}
}

// Property: the radius query returns exactly the points and per-class
// counts of a brute force scan — at every latitude, not only where a
// degree of longitude is about as long as a degree of latitude, and for
// query radii below, at and above the one the index was built for.
func TestPointIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	points := make([]Point, 500)
	for i := range points {
		points[i] = Point{Lat: 31 + rng.Float64()*0.5, Lon: 121 + rng.Float64()*0.5}
	}
	idx, err := newIndex(points, 300)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		center := Point{Lat: 31 + rng.Float64()*0.5, Lon: 121 + rng.Float64()*0.5}
		checkQuery(t, idx, points, center, 100+rng.Float64()*900)
	}

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
			idx, err := newIndex(points, 200)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 60; trial++ {
				center := draw()
				for _, radius := range []float64{50, 200, 500} {
					checkQuery(t, idx, points, center, radius)
				}
			}
		})
	}
}

// Radii at and a few ulps or parts per billion around a point's exact
// DistanceMeters put its haversine term on, between and just outside the
// bounds visit decides from without the arcsine; every verdict must still
// be DistanceMeters's.
func TestPointIndexBoundaryVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, lat := range []float64{0, 31.2, 65, -65, 89.9} {
		center := Point{Lat: lat, Lon: 20}
		points := make([]Point, 120)
		for i := range points {
			points[i] = Point{Lat: lat + 0.01*(rng.Float64()-0.5), Lon: 20 + 0.01*(rng.Float64()-0.5)/math.Cos(lat*math.Pi/180)}
		}
		idx, err := newIndex(points, 200)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			d := DistanceMeters(center, p)
			for _, radius := range []float64{
				d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)),
				d * (1 + 1e-9), d * (1 - 1e-9), d * (1 + 1.1e-9), d / (1 + 1.1e-9),
			} {
				checkQuery(t, idx, points, center, radius)
			}
		}
	}
}

// Points a continent apart make a bounding box of millions of cells; the
// offsets table still has one entry per point, and the many cells that
// share a bucket are told apart, so every query matches brute force.
func TestPointIndexSparseWideBox(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var points []Point
	for _, c := range []Point{{31.2, 121.4}, {51.5, -0.1}, {-33.9, 151.2}} {
		for range 7 {
			points = append(points, Point{Lat: c.Lat + (rng.Float64()-0.5)*0.01, Lon: c.Lon + (rng.Float64()-0.5)*0.01})
		}
	}
	idx, err := newIndex(points, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.offsets) != len(points)+1 || (idx.maxRow+1)*(idx.maxCol+1) < 1e6 {
		t.Fatalf("%d offsets for %d points over %d×%d cells", len(idx.offsets), len(points), idx.maxRow+1, idx.maxCol+1)
	}
	for _, center := range points {
		for _, radius := range []float64{100, 200, 600, 2000} {
			checkQuery(t, idx, points, center, radius)
		}
	}
}

// A query far from every indexed point, or with no usable radius, scans
// nothing and finds nothing; one whose disc covers a pole has no longitude
// bound and still terminates on the occupied cells.
func TestPointIndexDegenerateQueries(t *testing.T) {
	points := []Point{{Lat: 89.9995, Lon: -170}, {Lat: 89.9995, Lon: 10}, {Lat: 89.9995, Lon: 100}, {Lat: 89.5, Lon: 10}}
	idx, err := newIndex(points, 200)
	if err != nil {
		t.Fatal(err)
	}
	// The first three points ring the pole ~56 m from it; all lie within
	// 200 m of one another across it.
	if got, want := within(idx, points[1], 200), sortPoints(slices.Clone(points[:3])); !slices.Equal(got, want) {
		t.Errorf("across the pole: Within = %v, want %v", got, want)
	}
	var counts [4]float64
	idx.CountWithin(Point{Lat: -40, Lon: 10}, 200, counts[:])
	idx.CountWithin(points[3], -1, counts[:])
	if counts != [4]float64{} {
		t.Errorf("far query and negative radius counted %v", counts)
	}
	idx.CountWithin(points[3], 0, counts[:])
	if counts != [4]float64{0, 0, 0, 1} {
		t.Errorf("zero radius counted %v, want the coincident point of class 3", counts)
	}
}

// FuzzCountWithinMatchesBruteForce checks CountWithin against brute force
// on fuzzed layouts. Each pair of bytes places a point on a lattice of
// quarter cells around (lat, 20): repeated pairs are duplicate points,
// every fourth lattice line is a cell edge, and a query radius above the
// built one spans several cells. Every point is a query centre.
func FuzzCountWithinMatchesBruteForce(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 4, 0, 0, 4, 4, 4, 8, 1, 255, 3, 128, 128}, 31.2, 200.0, 200.0)
	f.Add([]byte{1, 2, 1, 2, 1, 2, 9, 9, 250, 7, 3, 60}, 89.97, 200.0, 700.0)
	f.Add([]byte{0, 0, 16, 16, 32, 32, 200, 100}, -65.0, 50.0, 130.0)
	f.Fuzz(func(t *testing.T, data []byte, lat, built, radius float64) {
		if !(lat >= -89.99 && lat <= 89.99) || !(built >= 1 && built <= 2000) || !(radius >= 0 && radius <= 5000) {
			t.Skip()
		}
		quarter := built / 111190.0 / 4
		var points []Point
		for i := 0; i+1 < len(data) && len(points) < 256; i += 2 {
			p := Point{Lat: lat + float64(int8(data[i]))*quarter, Lon: 20 + float64(int8(data[i+1]))*quarter}
			if !p.Valid() {
				t.Skip()
			}
			points = append(points, p)
		}
		if len(points) == 0 {
			t.Skip()
		}
		idx, err := newIndex(points, built)
		if err != nil {
			t.Fatal(err)
		}
		for _, center := range points {
			checkQuery(t, idx, points, center, radius)
		}
	})
}

func BenchmarkPointIndexWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	points := make([]Point, 10000)
	for i := range points {
		points[i] = Point{Lat: 31 + rng.Float64()*0.5, Lon: 121 + rng.Float64()*0.5}
	}
	idx, err := newIndex(points, 200)
	if err != nil {
		b.Fatal(err)
	}
	center := Point{Lat: 31.25, Lon: 121.25}
	var counts [4]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.CountWithin(center, 200, counts[:])
	}
}
