package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/panicsafe"
	"repro/internal/trace"
)

// VectorizeSourceContext is the traffic vectorizer: it aggregates
// cleaned connection records into per-tower traffic vectors and z-score
// normalises them. It is a single pass on the calling goroutine: record
// batches are pulled from src — thousands of records per interface call —
// and each record is one addition into its tower's slot accumulator. Peak
// memory is O(towers × slots) for the accumulators plus one record batch —
// never O(records) — so a trace of any length can be vectorised in constant
// space per tower. The pass is deliberately not sharded across workers:
// routing a record to a per-shard batch costs more than the one addition it
// would hand over, at any core count (measured on bench's batch-ingest).
//
// The record stream is typically a trace ingestion source wrapped in
// trace.CleanSource, or a synthetic city's log source. Following
// the paper's chunking of logs into 10-minute segments, a record's bytes
// are attributed to the slot containing its start time; records outside
// the aggregation window are dropped, and every tower appearing in the
// stream gets a row even if all its records fall outside the window.
// Tower locations are taken from the supplied tower infos (towers.csv);
// towers absent from the infos still get a vector with a zero location.
//
// Cancellation and fault isolation: ctx is observed between source batches
// (a Background context costs nothing), and the read loop runs under panic
// recovery, so a panic inside the source is returned as a *panicsafe.Error
// instead of crashing the process.
func VectorizeSourceContext(ctx context.Context, src trace.Source, towers []trace.TowerInfo, opts VectorizerOptions) (*Dataset, error) {
	if src == nil {
		return nil, fmt.Errorf("pipeline: nil source")
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	days := opts.EffectiveDays()
	slots := days * (1440 / opts.SlotMinutes)
	end := opts.Start.Add(time.Duration(days) * 24 * time.Hour)
	slotDur := time.Duration(opts.SlotMinutes) * time.Minute

	acc := make(map[int]linalg.Vector)
	done := ctx.Done()
	inp := trace.GetBatch()
	srcErr := panicsafe.Call(func() error {
		for {
			if done != nil && ctx.Err() != nil {
				return nil
			}
			n, err := src.NextBatch(*inp)
			for _, r := range (*inp)[:n] {
				vec, ok := acc[r.TowerID]
				if !ok {
					vec = make(linalg.Vector, slots)
					acc[r.TowerID] = vec
				}
				if r.Start.Before(opts.Start) || !r.Start.Before(end) {
					continue
				}
				vec[int(r.Start.Sub(opts.Start)/slotDur)] += float64(r.Bytes)
			}
			if err != nil {
				if !errors.Is(err, io.EOF) {
					return err
				}
				return nil
			}
		}
	})
	trace.PutBatch(inp)
	if srcErr != nil {
		return nil, fmt.Errorf("pipeline: reading source: %w", srcErr)
	}
	if done != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	towerIDs := make([]int, 0, len(acc))
	for id := range acc {
		towerIDs = append(towerIDs, id)
	}
	sort.Ints(towerIDs)
	locByID := make(map[int]geo.Point, len(towers))
	for _, t := range towers {
		locByID[t.TowerID] = t.Location
	}
	locations := make([]geo.Point, len(towerIDs))
	raw := linalg.NewMatrix(len(towerIDs), slots)
	for i, id := range towerIDs {
		locations[i] = locByID[id]
		copy(raw.Row(i), acc[id])
	}
	return VectorizeMatrix(towerIDs, locations, raw, opts)
}
