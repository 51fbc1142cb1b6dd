// Package poi models points of interest (POI) and the POI-derived
// statistics the paper uses to give traffic patterns a geographical
// context: per-tower POI counts within a radius (Section 3.3.1), min-max
// normalised per-cluster POI averages (Table 3), and the TF-IDF /
// normalised TF-IDF statistic used to validate the convex-combination
// coefficients (Section 5.3, Table 6).
package poi

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geo"
)

// Type is one of the four main POI categories of the paper.
type Type int

// The four POI categories, in the paper's column order.
const (
	Resident Type = iota
	Transport
	Office
	Entertainment
	NumTypes int = 4
)

// Types lists all POI types in canonical order.
var Types = []Type{Resident, Transport, Office, Entertainment}

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Resident:
		return "resident"
	case Transport:
		return "transport"
	case Office:
		return "office"
	case Entertainment:
		return "entertainment"
	default:
		return fmt.Sprintf("poi(%d)", int(t))
	}
}

// POI is a single point of interest.
type POI struct {
	Type     Type
	Location geo.Point
	Name     string // optional human-readable label
}

// Counts holds per-type POI counts around one location.
type Counts [NumTypes]float64

// Total returns the sum over all types.
func (c Counts) Total() float64 {
	var s float64
	for _, v := range c {
		s += v
	}
	return s
}

// Counter answers "how many POIs of each type lie within r metres of a
// point" from one spatial index over all POIs, labelled by type.
type Counter struct {
	index *geo.PointIndex // nil when there are no POIs
}

// DefaultRadiusMeters is the counting radius used throughout the paper.
const DefaultRadiusMeters = 200.0

// NewCounter indexes the POIs for radius queries of roughly radiusMeters.
// It rejects a POI of unknown type or at an invalid location.
func NewCounter(pois []POI, radiusMeters float64) (*Counter, error) {
	if !(radiusMeters > 0) {
		return nil, fmt.Errorf("poi: invalid radius %g", radiusMeters)
	}
	for i, p := range pois {
		if int(p.Type) < 0 || int(p.Type) >= NumTypes {
			return nil, fmt.Errorf("poi: POI %d has unknown type %d", i, p.Type)
		}
	}
	if len(pois) == 0 {
		return &Counter{}, nil
	}
	idx, err := geo.NewPointIndex(len(pois), func(i int) (geo.Point, uint8) {
		return pois[i].Location, uint8(pois[i].Type)
	}, radiusMeters)
	if err != nil {
		return nil, fmt.Errorf("poi: indexing POIs: %w", err)
	}
	return &Counter{index: idx}, nil
}

// CountWithin returns the number of POIs of each type within radiusMeters
// of the centre.
func (c *Counter) CountWithin(center geo.Point, radiusMeters float64) Counts {
	var out Counts
	if c.index != nil {
		c.index.CountWithin(center, radiusMeters, out[:])
	}
	return out
}

// CountAll returns the per-type POI counts within radiusMeters of every
// centre, in centre order.
func (c *Counter) CountAll(centers []geo.Point, radiusMeters float64) []Counts {
	out := make([]Counts, len(centers))
	for i, p := range centers {
		out[i] = c.CountWithin(p, radiusMeters)
	}
	return out
}

// ErrNoCounts is returned when an aggregate is requested over no towers.
var ErrNoCounts = errors.New("poi: no POI counts")

// MinMaxNormalize rescales each POI type independently to [0, 1] across all
// towers (the normalisation of Section 3.3.2: "we first perform min-max
// normalization on each type's POI"). The input is not modified.
func MinMaxNormalize(counts []Counts) ([]Counts, error) {
	if len(counts) == 0 {
		return nil, ErrNoCounts
	}
	var min, max Counts
	for t := 0; t < NumTypes; t++ {
		min[t] = math.Inf(1)
		max[t] = math.Inf(-1)
	}
	for _, c := range counts {
		for t := 0; t < NumTypes; t++ {
			min[t] = math.Min(min[t], c[t])
			max[t] = math.Max(max[t], c[t])
		}
	}
	out := make([]Counts, len(counts))
	for i, c := range counts {
		for t := 0; t < NumTypes; t++ {
			if span := max[t] - min[t]; span > 0 {
				out[i][t] = (c[t] - min[t]) / span
			}
		}
	}
	return out, nil
}

// AverageByGroup averages the (already normalised) per-tower counts over
// each group of tower indices, producing one Counts row per group — the
// computation behind Table 3 of the paper.
func AverageByGroup(counts []Counts, groups [][]int) ([]Counts, error) {
	out := make([]Counts, len(groups))
	for g, members := range groups {
		if len(members) == 0 {
			continue
		}
		for _, idx := range members {
			if idx < 0 || idx >= len(counts) {
				return nil, fmt.Errorf("poi: tower index %d out of range [0,%d)", idx, len(counts))
			}
			for t := 0; t < NumTypes; t++ {
				out[g][t] += counts[idx][t]
			}
		}
		for t := 0; t < NumTypes; t++ {
			out[g][t] /= float64(len(members))
		}
	}
	return out, nil
}

// RowShares normalises each row to sum to one — the per-cluster POI share
// pie chart of Figure 9.
func RowShares(rows []Counts) []Counts {
	out := make([]Counts, len(rows))
	for i, r := range rows {
		total := r.Total()
		if total == 0 {
			continue
		}
		for t := 0; t < NumTypes; t++ {
			out[i][t] = r[t] / total
		}
	}
	return out
}
