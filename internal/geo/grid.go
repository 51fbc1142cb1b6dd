package geo

import (
	"errors"
	"fmt"
	"math"
)

// Grid is a uniform latitude/longitude raster over a bounding box. It backs
// the traffic-density maps of Figure 2 and the per-cluster tower-density
// maps of Figure 7 of the paper.
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
