// Package geo provides the geographic primitives of the analysis pipeline:
// latitude/longitude points, distances, bounding boxes, uniform grids for
// density rasters, and a bucketed index for radius queries. Tower
// locations arrive as coordinates; the paper's address geocoding is not
// reproduced.
package geo

import (
	"errors"
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for haversine distances.
const EarthRadiusKm = 6371.0

// Point is a geographic location in degrees.
type Point struct {
	Lat float64 // latitude in degrees, positive north
	Lon float64 // longitude in degrees, positive east
}

// Valid reports whether the point lies within the legal latitude/longitude
// ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.5f, %.5f)", p.Lat, p.Lon) }

// HaversineKm returns the great-circle distance between two points in
// kilometres.
func HaversineKm(a, b Point) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(s)))
}

// DistanceMeters returns the great-circle distance between two points in
// metres.
func DistanceMeters(a, b Point) float64 { return HaversineKm(a, b) * 1000 }

// BoundingBox is an axis-aligned latitude/longitude rectangle.
type BoundingBox struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// NewBoundingBox returns the smallest box containing all points.
// It returns an error for an empty slice.
func NewBoundingBox(points []Point) (BoundingBox, error) {
	if len(points) == 0 {
		return BoundingBox{}, errors.New("geo: no points for bounding box")
	}
	b := BoundingBox{
		MinLat: points[0].Lat, MaxLat: points[0].Lat,
		MinLon: points[0].Lon, MaxLon: points[0].Lon,
	}
	for _, p := range points[1:] {
		b.MinLat = math.Min(b.MinLat, p.Lat)
		b.MaxLat = math.Max(b.MaxLat, p.Lat)
		b.MinLon = math.Min(b.MinLon, p.Lon)
		b.MaxLon = math.Max(b.MaxLon, p.Lon)
	}
	return b, nil
}

// Contains reports whether the point lies within the box (inclusive).
func (b BoundingBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat && p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Center returns the centre point of the box.
func (b BoundingBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// WidthKm returns the east-west extent of the box measured at its centre
// latitude, in kilometres.
func (b BoundingBox) WidthKm() float64 {
	c := b.Center()
	return HaversineKm(Point{Lat: c.Lat, Lon: b.MinLon}, Point{Lat: c.Lat, Lon: b.MaxLon})
}

// HeightKm returns the north-south extent of the box in kilometres.
func (b BoundingBox) HeightKm() float64 {
	return HaversineKm(Point{Lat: b.MinLat, Lon: b.MinLon}, Point{Lat: b.MaxLat, Lon: b.MinLon})
}

// AreaKm2 returns the approximate area of the box in square kilometres.
func (b BoundingBox) AreaKm2() float64 { return b.WidthKm() * b.HeightKm() }
