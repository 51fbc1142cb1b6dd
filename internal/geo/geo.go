// Package geo provides the geographic primitives of the analysis pipeline:
// latitude/longitude points, distances, bounding boxes, uniform grids for
// density rasters, and PointIndex for exact radius queries (the POIs
// within 200 m of a tower). The index stores its points once, in one flat
// array sorted into buckets by a counting sort, with an offsets table of
// one entry per point, so its size does not depend on how sparse or wide
// the points' bounding box is. Tower locations arrive as coordinates; the
// paper's address geocoding is not reproduced.
package geo

import (
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
	return arcKm(haversineTerm(a, b, cosLat(a), cosLat(b)))
}

// haversineTerm returns the haversine of the central angle between the
// points, sin²(Δlat/2) + cos(lat_a)·cos(lat_b)·sin²(Δlon/2), given the
// cosines of both latitudes, so a caller that measures from one point to
// many computes each once.
func haversineTerm(a, b Point, cosA, cosB float64) float64 {
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	sinLat, sinLon := math.Sin(dLat/2), math.Sin(dLon/2)
	return sinLat*sinLat + cosA*cosB*sinLon*sinLon
}

// arcKm returns the great-circle distance whose haversine term is s; it
// does not decrease as s grows.
func arcKm(s float64) float64 { return 2 * EarthRadiusKm * math.Asin(min(1, math.Sqrt(s))) }

// cosLat returns the cosine of the point's latitude.
func cosLat(p Point) float64 { return math.Cos(p.Lat * math.Pi / 180) }

// DistanceMeters returns the great-circle distance between two points in
// metres.
func DistanceMeters(a, b Point) float64 { return HaversineKm(a, b) * 1000 }

// BoundingBox is an axis-aligned latitude/longitude rectangle.
type BoundingBox struct {
	MinLat, MinLon, MaxLat, MaxLon float64
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
