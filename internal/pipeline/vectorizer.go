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
	// vectorizer trims this to whole weeks (TrimToWholeWeeks), mirroring
	// the paper's removal of 3 days from a 31-day trace. Required.
	Days int
	// SlotMinutes is the aggregation granularity (default 10).
	SlotMinutes int
	// KeepPartialWeeks retains days beyond the last whole week instead of
	// trimming them.
	KeepPartialWeeks bool
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

// effectiveDays returns the number of days retained after optional
// whole-week trimming.
func (o VectorizerOptions) effectiveDays() int {
	if o.KeepPartialWeeks {
		return o.Days
	}
	weeks := o.Days / 7
	if weeks == 0 {
		return o.Days
	}
	return weeks * 7
}

// SeriesInput is a pre-aggregated per-tower traffic series, the fast path
// used when the ground-truth series is already available (synthetic data)
// or when aggregation happened upstream.
type SeriesInput struct {
	TowerID  int
	Location geo.Point
	Bytes    []float64
}

// VectorizeSeries builds a dataset directly from pre-aggregated series.
// Each series must cover opts.Days days at opts.SlotMinutes granularity;
// the vectorizer trims them to whole weeks and z-score normalises, sharing
// the normalisation code path with VectorizeSourceContext. The series
// bytes are copied exactly once — straight into the dataset's flat matrix
// backing.
func VectorizeSeries(series []SeriesInput, opts VectorizerOptions) (*Dataset, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(series) == 0 {
		return nil, ErrEmptyDataset
	}
	days := opts.effectiveDays()
	slots := days * (1440 / opts.SlotMinutes)
	fullSlots := opts.Days * (1440 / opts.SlotMinutes)

	towerIDs := make([]int, len(series))
	raw := make([]linalg.Vector, len(series))
	locByID := make(map[int]geo.Point, len(series))
	for i, s := range series {
		if len(s.Bytes) != fullSlots {
			return nil, fmt.Errorf("pipeline: series for tower %d has %d slots, want %d", s.TowerID, len(s.Bytes), fullSlots)
		}
		towerIDs[i] = s.TowerID
		locByID[s.TowerID] = s.Location
		raw[i] = linalg.Vector(s.Bytes[:slots])
	}
	return assemble(towerIDs, raw, locByID, opts, days)
}

// assemble runs phase 2 (filtering, flat-matrix packing and normalisation)
// and builds the Dataset: the kept raw rows are written into one
// contiguous RawMatrix, each row is z-score normalised directly into the
// matching NormalizedMatrix row, and Raw/Normalized become views of the
// two flat buffers. The input rows are only read, never retained.
func assemble(towerIDs []int, raw []linalg.Vector, locByID map[int]geo.Point, opts VectorizerOptions, days int) (*Dataset, error) {
	keep := make([]int, 0, len(towerIDs))
	for i := range towerIDs {
		if opts.MinActiveSlots > 0 {
			active := 0
			for _, v := range raw[i] {
				if v > 0 {
					active++
				}
			}
			if active < opts.MinActiveSlots {
				continue
			}
		}
		keep = append(keep, i)
	}
	if len(keep) == 0 {
		return nil, ErrEmptyDataset
	}
	slots := days * (1440 / opts.SlotMinutes)
	d := &Dataset{
		TowerIDs:         make([]int, len(keep)),
		Locations:        make([]geo.Point, len(keep)),
		RawMatrix:        linalg.NewMatrix(len(keep), slots),
		NormalizedMatrix: linalg.NewMatrix(len(keep), slots),
		Start:            opts.Start,
		SlotMinutes:      opts.SlotMinutes,
		Days:             days,
	}
	for r, idx := range keep {
		// copy() would silently truncate or zero-pad a short row into the
		// matrix; the pre-flat path surfaced such bugs through Validate, so
		// keep the guard explicit.
		if len(raw[idx]) != slots {
			return nil, fmt.Errorf("%w: row for tower %d has %d slots, want %d", ErrBadShape, towerIDs[idx], len(raw[idx]), slots)
		}
		d.TowerIDs[r] = towerIDs[idx]
		d.Locations[r] = locByID[towerIDs[idx]]
		rawRow := d.RawMatrix.Row(r)
		copy(rawRow, raw[idx])
		if err := linalg.ZScoreNormalizeInto(d.NormalizedMatrix.Row(r), rawRow); err != nil {
			return nil, err
		}
	}
	d.Raw = d.RawMatrix.RowViews()
	d.Normalized = d.NormalizedMatrix.RowViews()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
