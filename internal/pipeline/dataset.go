// Package pipeline implements the paper's "traffic vectorizer": the stage
// that turns cleaned connection logs into per-tower traffic usage vectors.
//
// The vectorizer works in two phases, exactly as described in Section 3.2:
//
//  1. aggregation — each tower's logs are segmented into fixed-length
//     chunks (10 minutes in the paper) and the bytes in each chunk are
//     summed, producing one raw traffic vector per tower;
//  2. normalisation — each vector is zero-score (z-score) normalised so
//     that towers with different absolute volumes but the same shape look
//     identical to the clustering stage.
//
// The paper runs this on a Hadoop cluster; here both phases are a single
// pass on the calling goroutine in O(towers × slots) memory: aggregation is
// one addition per record, and handing that to a worker costs more than
// doing it (see VectorizeSourceContext).
package pipeline

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/linalg"
)

// Dataset is the vectorised form of a traffic trace: one row per tower.
//
// The traffic is stored once, as row views. A dataset that came out of the
// vectorizer lays the rows of Raw, and those of Normalized, end to end in
// one contiguous row-major buffer each, so linalg.RowsMatrix hands the
// modeling stage that buffer as a flat matrix without copying; for rows
// assembled one by one (hand-built literals) it packs them instead, so it
// works on every dataset. Nothing derived from the rows is cached here: the
// float32 tier narrows them in core.AnalyzeContext, once per analysis.
type Dataset struct {
	// TowerIDs[i] is the base-station ID of row i.
	TowerIDs []int
	// Locations[i] is the geographic location of row i's tower (zero value
	// if unknown).
	Locations []geo.Point
	// Raw[i] is the aggregated (unnormalised) traffic vector of row i in
	// bytes per slot.
	Raw []linalg.Vector
	// Normalized[i] is the z-score normalised traffic vector of row i; this
	// is the input to the clustering stage.
	Normalized []linalg.Vector
	// Start is the first instant covered by slot 0.
	Start time.Time
	// SlotMinutes is the aggregation granularity.
	SlotMinutes int
	// Days is the number of whole days covered after trimming.
	Days int
}

// Errors returned by dataset construction and accessors.
var (
	ErrEmptyDataset = errors.New("pipeline: empty dataset")
	ErrBadShape     = errors.New("pipeline: inconsistent dataset shape")
)

// NumTowers returns the number of rows.
func (d *Dataset) NumTowers() int { return len(d.TowerIDs) }

// NumSlots returns the number of time slots per row (0 for an empty
// dataset).
func (d *Dataset) NumSlots() int {
	if len(d.Raw) == 0 {
		return 0
	}
	return len(d.Raw[0])
}

// SlotsPerDay returns the number of slots in one day.
func (d *Dataset) SlotsPerDay() int {
	if d.SlotMinutes <= 0 {
		return 0
	}
	return 1440 / d.SlotMinutes
}

// SlotTime returns the start time of slot i.
func (d *Dataset) SlotTime(i int) time.Time {
	return d.Start.Add(time.Duration(i) * time.Duration(d.SlotMinutes) * time.Minute)
}

// Validate checks the dataset's structural invariants: matching row counts,
// equal-length vectors, finite values and a slot count that covers Days
// whole days.
func (d *Dataset) Validate() error {
	n := d.NumTowers()
	if n == 0 {
		return ErrEmptyDataset
	}
	if len(d.Raw) != n || len(d.Normalized) != n || len(d.Locations) != n {
		return fmt.Errorf("%w: %d towers, %d raw, %d normalized, %d locations",
			ErrBadShape, n, len(d.Raw), len(d.Normalized), len(d.Locations))
	}
	slots := d.NumSlots()
	if slots == 0 {
		return fmt.Errorf("%w: zero slots", ErrBadShape)
	}
	if d.SlotMinutes <= 0 || 1440%d.SlotMinutes != 0 {
		return fmt.Errorf("%w: slot minutes %d", ErrBadShape, d.SlotMinutes)
	}
	if d.Days <= 0 || d.Days*d.SlotsPerDay() != slots {
		return fmt.Errorf("%w: %d days × %d slots/day != %d slots", ErrBadShape, d.Days, d.SlotsPerDay(), slots)
	}
	for i := 0; i < n; i++ {
		if len(d.Raw[i]) != slots || len(d.Normalized[i]) != slots {
			return fmt.Errorf("%w: row %d has %d/%d slots, want %d", ErrBadShape, i, len(d.Raw[i]), len(d.Normalized[i]), slots)
		}
		if !d.Raw[i].IsFinite() || !d.Normalized[i].IsFinite() {
			return fmt.Errorf("pipeline: row %d contains non-finite values", i)
		}
	}
	return nil
}

// AggregateRaw returns the element-wise sum of the raw vectors of the given
// rows (all rows when idxs is nil) — the city-wide or cluster-wide traffic
// series.
func (d *Dataset) AggregateRaw(idxs []int) (linalg.Vector, error) {
	if d.NumTowers() == 0 {
		return nil, ErrEmptyDataset
	}
	if idxs == nil {
		idxs = make([]int, d.NumTowers())
		for i := range idxs {
			idxs[i] = i
		}
	}
	if len(idxs) == 0 {
		return nil, ErrEmptyDataset
	}
	out := make(linalg.Vector, d.NumSlots())
	for _, idx := range idxs {
		if idx < 0 || idx >= d.NumTowers() {
			return nil, fmt.Errorf("pipeline: row index %d out of range [0,%d)", idx, d.NumTowers())
		}
		if err := out.AddInPlace(d.Raw[idx]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RowByTowerID returns the row index of the given tower ID, or -1.
func (d *Dataset) RowByTowerID(towerID int) int {
	for i, id := range d.TowerIDs {
		if id == towerID {
			return i
		}
	}
	return -1
}
