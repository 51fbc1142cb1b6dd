package geo

import (
	"errors"
	"fmt"
	"math"
)

// Grid is a uniform latitude/longitude raster over a bounding box. It backs
// the traffic-density maps of Figure 2 and the per-cluster tower-density
// maps of Figure 7 of the paper, and doubles as a spatial index for
// radius queries (POI within 200 m of a tower).
type Grid struct {
	Box          BoundingBox
	RowsN, ColsN int       // raster dimensions (rows = latitude, cols = longitude)
	Cells        []float64 // row-major accumulated values
}

// NewGrid builds an empty grid of rows × cols cells over the box.
func NewGrid(box BoundingBox, rows, cols int) (*Grid, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("geo: invalid grid size %dx%d", rows, cols)
	}
	if box.MaxLat <= box.MinLat || box.MaxLon <= box.MinLon {
		return nil, errors.New("geo: degenerate bounding box")
	}
	return &Grid{Box: box, RowsN: rows, ColsN: cols, Cells: make([]float64, rows*cols)}, nil
}

// CellIndex returns the (row, col) cell containing the point, or ok=false
// if the point lies outside the grid's bounding box.
func (g *Grid) CellIndex(p Point) (row, col int, ok bool) {
	if !g.Box.Contains(p) {
		return 0, 0, false
	}
	latFrac := (p.Lat - g.Box.MinLat) / (g.Box.MaxLat - g.Box.MinLat)
	lonFrac := (p.Lon - g.Box.MinLon) / (g.Box.MaxLon - g.Box.MinLon)
	row = int(latFrac * float64(g.RowsN))
	col = int(lonFrac * float64(g.ColsN))
	if row == g.RowsN {
		row--
	}
	if col == g.ColsN {
		col--
	}
	return row, col, true
}

// Add accumulates the value into the cell containing the point. Points
// outside the box are ignored and reported via the return value.
func (g *Grid) Add(p Point, value float64) bool {
	row, col, ok := g.CellIndex(p)
	if !ok {
		return false
	}
	g.Cells[row*g.ColsN+col] += value
	return true
}

// CellCenter returns the geographic centre of cell (row, col).
func (g *Grid) CellCenter(row, col int) Point {
	latStep := (g.Box.MaxLat - g.Box.MinLat) / float64(g.RowsN)
	lonStep := (g.Box.MaxLon - g.Box.MinLon) / float64(g.ColsN)
	return Point{
		Lat: g.Box.MinLat + (float64(row)+0.5)*latStep,
		Lon: g.Box.MinLon + (float64(col)+0.5)*lonStep,
	}
}

// CellAreaKm2 returns the approximate area of one grid cell.
func (g *Grid) CellAreaKm2() float64 {
	return g.Box.AreaKm2() / float64(g.RowsN*g.ColsN)
}

// Densities returns a copy of the cells divided by the cell area, i.e.
// value per km² — the "traffic density (byte/km²)" of Section 2.2.
func (g *Grid) Densities() []float64 {
	area := g.CellAreaKm2()
	out := make([]float64, len(g.Cells))
	if area <= 0 {
		return out
	}
	for i, v := range g.Cells {
		out[i] = v / area
	}
	return out
}

// MaxCell returns the row, column and value of the cell with the largest
// accumulated value. For Figure 7 / Table 2 this is "the point with the
// highest tower density" of a cluster.
func (g *Grid) MaxCell() (row, col int, value float64) {
	best := math.Inf(-1)
	for i, v := range g.Cells {
		if v > best {
			best = v
			row = i / g.ColsN
			col = i % g.ColsN
		}
	}
	return row, col, best
}

// Total returns the sum of all cell values.
func (g *Grid) Total() float64 {
	var s float64
	for _, v := range g.Cells {
		s += v
	}
	return s
}

// PointIndex is a spatial index over a fixed set of points supporting
// exact radius queries. It buckets points into square latitude/longitude
// cells about one expected query radius on a side, so a query reads only
// the buckets its disc can reach. The index is planar in longitude: a query
// does not see across the ±180° antimeridian.
type PointIndex struct {
	box     BoundingBox
	cellDeg float64
	// maxRow and maxCol are the highest occupied bucket coordinates; the
	// lowest are 0 because the box is the points' own bounding box.
	maxRow, maxCol int
	buckets        map[[2]int][]int
	points         []Point
}

// metersPerDegree is the length of one degree of latitude — and of one
// degree of longitude at the equator — on the haversine sphere.
const metersPerDegree = EarthRadiusKm * 1000 * math.Pi / 180

// NewPointIndex indexes the points for radius queries of roughly
// expectedRadiusMeters. Any query radius stays exact; larger ones read
// proportionally more buckets.
func NewPointIndex(points []Point, expectedRadiusMeters float64) (*PointIndex, error) {
	if len(points) == 0 {
		return nil, errors.New("geo: no points to index")
	}
	if expectedRadiusMeters <= 0 {
		return nil, fmt.Errorf("geo: invalid radius %g", expectedRadiusMeters)
	}
	box, err := NewBoundingBox(points)
	if err != nil {
		return nil, err
	}
	// Cells are about one expected radius of latitude on a side (one degree
	// ≈ 111.19 km), in degrees on both axes. A degree of longitude spans
	// only cos(lat) of that on the ground, so away from the equator a cell
	// is narrower east-west than the radius; a query sizes its column
	// window by latitude to make up for it (see visit).
	idx := &PointIndex{
		box:     box,
		cellDeg: expectedRadiusMeters / 111190.0,
		buckets: make(map[[2]int][]int),
		points:  points,
	}
	for i, p := range points {
		key := idx.bucketKey(p)
		idx.buckets[key] = append(idx.buckets[key], i)
		idx.maxRow = max(idx.maxRow, key[0])
		idx.maxCol = max(idx.maxCol, key[1])
	}
	return idx, nil
}

func (idx *PointIndex) bucketKey(p Point) [2]int {
	return [2]int{
		int(math.Floor((p.Lat - idx.box.MinLat) / idx.cellDeg)),
		int(math.Floor((p.Lon - idx.box.MinLon) / idx.cellDeg)),
	}
}

// bucketSpan returns the occupied bucket coordinates in [0, maxKey] that
// the coordinate interval [lo, hi] overlaps (empty when first > last).
// The clamp happens in floating point, so an unbounded interval — a query
// whose disc touches a pole has no longitude bound — stays a finite loop.
func (idx *PointIndex) bucketSpan(lo, hi, origin float64, maxKey int) (first, last int) {
	f := math.Max(0, math.Floor((lo-origin)/idx.cellDeg))
	l := math.Min(float64(maxKey), math.Floor((hi-origin)/idx.cellDeg))
	if !(f <= l) {
		return 0, -1
	}
	return int(f), int(l)
}

// visit calls fn with the index of every point within radiusMeters of the
// centre, in bucket (row, column) order and insertion order within a
// bucket.
//
// A great-circle distance is never shorter than its latitude leg, so a
// point within the radius r lies within r/metersPerDegree degrees of the
// centre's latitude; and along the great-circle path to it the longitude
// advances by at most ds/cos(lat) per ds travelled, so it lies within that
// many degrees divided by the cosine of the highest latitude of the band.
// The bucket window is sized per axis from those two bounds, and a
// candidate that exceeds either is rejected before the haversine. Both
// bounds carry a 1e-9 relative margin (plus 1e-12° for the rounding of the
// window's corner coordinates), far above the haversine's own rounding, so
// the prefilter never changes which points pass the exact test below.
func (idx *PointIndex) visit(center Point, radiusMeters float64, fn func(i int)) {
	const margin = 1 + 1e-9
	dLat := radiusMeters / metersPerDegree * margin
	dLon := math.Inf(1)
	if top := math.Abs(center.Lat) + dLat; top < 90 {
		dLon = dLat / math.Cos(top*math.Pi/180) * margin
	}
	const pad = 1e-12
	r0, r1 := idx.bucketSpan(center.Lat-dLat-pad, center.Lat+dLat+pad, idx.box.MinLat, idx.maxRow)
	c0, c1 := idx.bucketSpan(center.Lon-dLon-pad, center.Lon+dLon+pad, idx.box.MinLon, idx.maxCol)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			for _, i := range idx.buckets[[2]int{r, c}] {
				p := idx.points[i]
				if math.Abs(p.Lat-center.Lat) > dLat || math.Abs(p.Lon-center.Lon) > dLon {
					continue
				}
				if DistanceMeters(center, p) <= radiusMeters {
					fn(i)
				}
			}
		}
	}
}

// CountWithin returns the number of indexed points within radiusMeters of
// the centre point.
func (idx *PointIndex) CountWithin(center Point, radiusMeters float64) int {
	n := 0
	idx.visit(center, radiusMeters, func(int) { n++ })
	return n
}
