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
// The traffic itself lives in two contiguous row-major matrices —
// RawMatrix and NormalizedMatrix — and Raw/Normalized are per-row views
// aliasing their storage, the form the per-tower stages (FFT, anomaly,
// forecast) read. The modeling stage takes its matrix from the row views
// with linalg.RowsMatrix, which recognises views of one flat buffer and
// aliases it without packing, and packs rows assembled one by one — so it
// works on every dataset. Mutating a row through either form mutates the
// matrix.
type Dataset struct {
	// TowerIDs[i] is the base-station ID of row i.
	TowerIDs []int
	// Locations[i] is the geographic location of row i's tower (zero value
	// if unknown).
	Locations []geo.Point
	// Raw[i] is the aggregated (unnormalised) traffic vector of row i in
	// bytes per slot — a view into RawMatrix when the dataset came out of
	// the vectorizer.
	Raw []linalg.Vector
	// Normalized[i] is the z-score normalised traffic vector of row i; this
	// is the input to the clustering stage. A view into NormalizedMatrix
	// when the dataset came out of the vectorizer.
	Normalized []linalg.Vector
	// RawMatrix and NormalizedMatrix are the contiguous flat backings of
	// Raw and Normalized. They are nil for datasets assembled row by row
	// (Subset, hand-built literals).
	RawMatrix        *linalg.Matrix
	NormalizedMatrix *linalg.Matrix
	// RawMatrix32 and NormalizedMatrix32 are float32 narrowings of the two
	// flat backings, the inputs of the reduced-precision modeling fast
	// path. They are nil until EnsureFloat32 builds them; the float64
	// matrices stay authoritative and the narrowed copies are never
	// widened back.
	RawMatrix32        *linalg.Matrix32
	NormalizedMatrix32 *linalg.Matrix32
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
	for _, m := range []*linalg.Matrix{d.RawMatrix, d.NormalizedMatrix} {
		if m != nil && (m.Rows != n || m.Cols != slots) {
			return fmt.Errorf("%w: flat backing %dx%d for %d towers × %d slots", ErrBadShape, m.Rows, m.Cols, n, slots)
		}
	}
	for _, m := range []*linalg.Matrix32{d.RawMatrix32, d.NormalizedMatrix32} {
		if m != nil && (m.Rows != n || m.Cols != slots) {
			return fmt.Errorf("%w: float32 backing %dx%d for %d towers × %d slots", ErrBadShape, m.Rows, m.Cols, n, slots)
		}
	}
	return nil
}

// EnsureFloat32 builds the float32 flat backings by narrowing the rows of
// the dataset — from the contiguous float64 matrices when present, from
// the per-row views otherwise. It is idempotent: existing float32
// backings are kept. The narrowing is the single precision loss of the
// float32 modeling path; every kernel downstream works on these bits.
func (d *Dataset) EnsureFloat32() error {
	n, slots := d.NumTowers(), d.NumSlots()
	if n == 0 || slots == 0 {
		return ErrEmptyDataset
	}
	narrow := func(m *linalg.Matrix, rows []linalg.Vector) (*linalg.Matrix32, error) {
		out := linalg.NewMatrix32(n, slots)
		if m != nil {
			if m.Rows != n || m.Cols != slots {
				return nil, fmt.Errorf("%w: flat backing %dx%d for %d towers × %d slots", ErrBadShape, m.Rows, m.Cols, n, slots)
			}
			for i, x := range m.Data {
				out.Data[i] = float32(x)
			}
			return out, nil
		}
		for i, row := range rows {
			if len(row) != slots {
				return nil, fmt.Errorf("%w: row %d has %d slots, want %d", ErrBadShape, i, len(row), slots)
			}
			dst := out.Row(i)
			for j, x := range row {
				dst[j] = float32(x)
			}
		}
		return out, nil
	}
	var err error
	if d.RawMatrix32 == nil {
		if d.RawMatrix32, err = narrow(d.RawMatrix, d.Raw); err != nil {
			return err
		}
	}
	if d.NormalizedMatrix32 == nil {
		if d.NormalizedMatrix32, err = narrow(d.NormalizedMatrix, d.Normalized); err != nil {
			return err
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
