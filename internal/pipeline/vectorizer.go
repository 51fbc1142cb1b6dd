package pipeline

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/linalg"
)

// VectorizerOptions configure the traffic vectorizer.
type VectorizerOptions struct {
	// Start is the first instant of the aggregation window. Records before
	// it are dropped. Required.
	Start time.Time
	// Days is the number of days of data available from Start. The
	// vectorizer trims this to whole weeks (EffectiveDays), mirroring the
	// paper's removal of 3 days from a 31-day trace. Required.
	Days int
	// SlotMinutes is the aggregation granularity (default 10).
	SlotMinutes int
	// MinActiveSlots drops towers whose raw vector has fewer than this many
	// non-zero slots; such towers carry too little signal to cluster.
	// Zero keeps everything.
	MinActiveSlots int
}

func (o VectorizerOptions) withDefaults() VectorizerOptions {
	if o.SlotMinutes == 0 {
		o.SlotMinutes = 10
	}
	return o
}

func (o VectorizerOptions) validate() error {
	if o.Start.IsZero() {
		return fmt.Errorf("pipeline: Start must be set")
	}
	if o.Days <= 0 {
		return fmt.Errorf("pipeline: Days must be positive, got %d", o.Days)
	}
	if o.SlotMinutes <= 0 || 1440%o.SlotMinutes != 0 {
		return fmt.Errorf("pipeline: SlotMinutes must divide 1440, got %d", o.SlotMinutes)
	}
	if o.MinActiveSlots < 0 {
		return fmt.Errorf("pipeline: MinActiveSlots must be non-negative")
	}
	return nil
}

// EffectiveDays is the vectorizer's trim rule: the number of days of
// opts.Days retained, whole weeks, or every day when there are fewer than
// seven. A vectorised matrix has EffectiveDays × slots-per-day columns.
func (o VectorizerOptions) EffectiveDays() int {
	weeks := o.Days / 7
	if weeks == 0 {
		return o.Days
	}
	return weeks * 7
}

// VectorizeMatrix runs phase 2 (filtering and normalisation) on traffic
// that is already aggregated into a towers × slots matrix, and builds the
// Dataset around it. It adopts its arguments rather than copying them: rows
// with fewer than opts.MinActiveSlots non-zero slots are dropped by moving
// the kept rows (and their towerIDs and locations entries) up in place, the
// dataset's Raw rows are views of raw's storage, and each is z-score
// normalised into the matching row of one second buffer. The caller must
// not touch the three arguments afterwards. raw must have one row per tower
// ID and location, and one column per slot of the whole weeks opts.Days
// trims to (ErrBadShape otherwise); no surviving row is ErrEmptyDataset.
func VectorizeMatrix(towerIDs []int, locations []geo.Point, raw *linalg.Matrix, opts VectorizerOptions) (*Dataset, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	days := opts.EffectiveDays()
	slots := days * (1440 / opts.SlotMinutes)
	if len(towerIDs) != raw.Rows || len(locations) != raw.Rows || raw.Cols != slots || len(raw.Data) != raw.Rows*slots {
		return nil, fmt.Errorf("%w: %d tower IDs, %d locations, %dx%d matrix over %d values, want %d slots",
			ErrBadShape, len(towerIDs), len(locations), raw.Rows, raw.Cols, len(raw.Data), slots)
	}
	keep := 0
	for r := 0; r < raw.Rows; r++ {
		row := raw.Row(r)
		if opts.MinActiveSlots > 0 {
			active := 0
			for _, v := range row {
				if v > 0 {
					active++
				}
			}
			if active < opts.MinActiveSlots {
				continue
			}
		}
		if keep != r {
			copy(raw.Row(keep), row)
			towerIDs[keep], locations[keep] = towerIDs[r], locations[r]
		}
		keep++
	}
	if keep == 0 {
		return nil, ErrEmptyDataset
	}
	raw.Rows, raw.Data = keep, raw.Data[:keep*slots]
	norm := linalg.NewMatrix(keep, slots)
	for r := 0; r < keep; r++ {
		if err := linalg.ZScoreNormalizeInto(norm.Row(r), raw.Row(r)); err != nil {
			return nil, err
		}
	}
	d := &Dataset{
		TowerIDs:    towerIDs[:keep],
		Locations:   locations[:keep],
		Raw:         raw.RowViews(),
		Normalized:  norm.RowViews(),
		Start:       opts.Start,
		SlotMinutes: opts.SlotMinutes,
		Days:        days,
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
