package geo

import (
	"errors"
	"fmt"
	"math"
)

// PointIndex is a spatial index over a fixed set of labelled points
// supporting exact radius queries. It assigns points to square
// latitude/longitude cells about one expected query radius on a side, so
// a query reads only the cells its disc can reach. The index is planar in
// longitude: a query does not see across the ±180° antimeridian.
//
// The points are stored once, in bucket order, in flat arrays filled by a
// counting sort: bucket b holds points[offsets[b]:offsets[b+1]]. There is
// one bucket per point, not one per cell, so the offsets table stays
// O(points) however sparse and wide the bounding box is. Cell (row, col)
// lies in bucket (row·rowStride + col) mod buckets: the cells of one row
// occupy consecutive buckets, so a query scans one contiguous run of the
// arrays per row of its window. Cells of different rows may share a
// bucket; a scan skips the points of rows other than its own.
type PointIndex struct {
	minLat, minLon float64 // corner of the points' bounding box
	cellDeg        float64
	// maxRow and maxCol are the highest occupied cell coordinates; the
	// lowest are 0 because the corner is the points' own.
	maxRow, maxCol int
	points         []Point
	cosLat         []float64 // cosine of points[j]'s latitude
	classes        []uint8   // label of points[j]
	offsets        []int32
}

// metersPerDegree is the length of one degree of latitude — and of one
// degree of longitude at the equator — on the haversine sphere.
const metersPerDegree = EarthRadiusKm * 1000 * math.Pi / 180

// rowStride scatters the rows of the cell grid over the buckets (the
// 64-bit golden-ratio multiplier).
const rowStride = 0x9E3779B97F4A7C15

// NewPointIndex indexes n points for radius queries of roughly
// expectedRadiusMeters; at(i) returns the i-th point and its class, a
// label such as a POI type that CountWithin tallies by; it is called
// three times per point and must answer the same each time. Every point
// must be Valid. Any query radius stays exact; larger ones read
// proportionally more cells.
func NewPointIndex(n int, at func(i int) (Point, uint8), expectedRadiusMeters float64) (*PointIndex, error) {
	if n <= 0 {
		return nil, errors.New("geo: no points to index")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("geo: %d points exceed the index's int32 offsets", n)
	}
	if !(expectedRadiusMeters > 0) {
		return nil, fmt.Errorf("geo: invalid radius %g", expectedRadiusMeters)
	}
	// Cells are about one expected radius of latitude on a side (one degree
	// ≈ 111.19 km), in degrees on both axes. A degree of longitude spans
	// only cos(lat) of that on the ground, so away from the equator a cell
	// is narrower east-west than the radius; a query sizes its column
	// window by latitude to make up for it (see visit).
	idx := &PointIndex{
		minLat:  math.Inf(1),
		minLon:  math.Inf(1),
		cellDeg: expectedRadiusMeters / 111190.0,
		offsets: make([]int32, n+1),
	}
	for i := range n {
		p, _ := at(i)
		if !p.Valid() {
			return nil, fmt.Errorf("geo: point %d %v is not a valid location", i, p)
		}
		idx.minLat, idx.minLon = min(idx.minLat, p.Lat), min(idx.minLon, p.Lon)
	}
	// Counting sort: count each bucket's points into the slot after it and
	// sum, so offsets[b] is where bucket b starts; placing a point advances
	// its bucket's entry to the start of the next, and the final shift
	// restores the starts.
	for i := range n {
		p, _ := at(i)
		r, c := idx.cell(p)
		idx.maxRow, idx.maxCol = max(idx.maxRow, r), max(idx.maxCol, c)
		idx.offsets[idx.bucket(r, c)+1]++
	}
	for b := 1; b <= n; b++ {
		idx.offsets[b] += idx.offsets[b-1]
	}
	idx.points = make([]Point, n)
	idx.cosLat = make([]float64, n)
	idx.classes = make([]uint8, n)
	for i := range n {
		p, class := at(i)
		b := idx.bucket(idx.cell(p))
		j := idx.offsets[b]
		idx.offsets[b]++
		idx.points[j], idx.cosLat[j], idx.classes[j] = p, cosLat(p), class
	}
	copy(idx.offsets[1:], idx.offsets[:n])
	idx.offsets[0] = 0
	return idx, nil
}

// cell returns the cell holding an indexed point. Its offsets from the
// corner are non-negative, so the conversion truncates as Floor would.
func (idx *PointIndex) cell(p Point) (row, col int) {
	return int((p.Lat - idx.minLat) / idx.cellDeg), int((p.Lon - idx.minLon) / idx.cellDeg)
}

// bucket returns the bucket that holds cell (row, col).
func (idx *PointIndex) bucket(row, col int) int {
	return int((uint64(row)*rowStride + uint64(col)) % uint64(len(idx.offsets)-1))
}

// bucketSpan returns the occupied cell coordinates in [0, maxKey] that the
// coordinate interval [lo, hi] overlaps (empty when first > last). The
// clamp happens in floating point, so an unbounded interval — a query
// whose disc touches a pole has no longitude bound — stays a finite loop.
func (idx *PointIndex) bucketSpan(lo, hi, origin float64, maxKey int) (first, last int) {
	f := math.Max(0, math.Floor((lo-origin)/idx.cellDeg))
	l := math.Min(float64(maxKey), math.Floor((hi-origin)/idx.cellDeg))
	if !(f <= l) {
		return 0, -1
	}
	return int(f), int(l)
}

// visit calls fn with the position in idx.points of every point within
// radiusMeters of the centre, each once.
//
// A great-circle distance is never shorter than its latitude leg, so a
// point within the radius r lies within r/metersPerDegree degrees of the
// centre's latitude; and along the great-circle path to it the longitude
// advances by at most ds/cos(lat) per ds travelled, so it lies within that
// many degrees divided by the cosine of the highest latitude of the band.
// The cell window is sized per axis from those two bounds, and a
// candidate that exceeds either is rejected before the haversine. Both
// bounds carry a 1e-9 relative margin (plus 1e-12° for the rounding of the
// window's corner coordinates), far above the haversine's own rounding, so
// the prefilter never changes which points pass the exact test below —
// the same arithmetic as DistanceMeters(center, p) <= radiusMeters.
//
// That test reads the distance from the haversine term s, which grows
// with it. A term at most inside, the term of the radius shrunk by the
// same margin, is a distance below the radius, and one at least outside
// (the radius grown by it) is a distance above it, whatever the rounding
// of the arcsine; only a term between the two takes the arcsine. Outside
// radii of 1 mm to 1000 km every term does.
func (idx *PointIndex) visit(center Point, radiusMeters float64, fn func(j int)) {
	const margin = 1 + 1e-9
	dLat := radiusMeters / metersPerDegree * margin
	dLon := math.Inf(1)
	if top := math.Abs(center.Lat) + dLat; top < 90 {
		dLon = dLat / math.Cos(top*math.Pi/180) * margin
	}
	inside, outside := -1.0, math.Inf(1)
	if radiusMeters >= 1e-3 && radiusMeters <= 1e6 {
		term := func(m float64) float64 {
			s := math.Sin(m / (2 * EarthRadiusKm * 1000))
			return s * s
		}
		inside, outside = term(radiusMeters/margin), term(radiusMeters*margin)
	}
	const pad = 1e-12
	r0, r1 := idx.bucketSpan(center.Lat-dLat-pad, center.Lat+dLat+pad, idx.minLat, idx.maxRow)
	c0, c1 := idx.bucketSpan(center.Lon-dLon-pad, center.Lon+dLon+pad, idx.minLon, idx.maxCol)
	if c0 > c1 {
		return
	}
	cosCenter := cosLat(center)
	buckets := len(idx.offsets) - 1
	width := min(c1-c0+1, buckets)
	for r := r0; r <= r1; r++ {
		// The row's cells c0..c1 lie in buckets first..first+width-1,
		// wrapping past the last bucket to the first.
		first := idx.bucket(r, c0)
		end := first + width
		runs := [2][2]int{{first, min(end, buckets)}, {0, max(end-buckets, 0)}}
		for _, run := range runs {
			for j := idx.offsets[run[0]]; j < idx.offsets[run[1]]; j++ {
				p := idx.points[j]
				if math.Abs(p.Lat-center.Lat) > dLat || math.Abs(p.Lon-center.Lon) > dLon {
					continue
				}
				if row, _ := idx.cell(p); row != r {
					continue
				}
				s := haversineTerm(center, p, cosCenter, idx.cosLat[j])
				if s <= inside || s < outside && arcKm(s)*1000 <= radiusMeters {
					fn(int(j))
				}
			}
		}
	}
}

// CountWithin adds one to counts[c] for every indexed point of class c
// within radiusMeters of the centre; counts must cover every class.
func (idx *PointIndex) CountWithin(center Point, radiusMeters float64, counts []float64) {
	idx.visit(center, radiusMeters, func(j int) { counts[idx.classes[j]]++ })
}
