package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/panicsafe"
	"repro/internal/trace"
)

// sourceBatchSize is the number of records handed to a shard worker at a
// time. Batching amortises the channel synchronisation over many records
// while keeping the in-flight working set small and bounded.
const sourceBatchSize = 512

// VectorizeSourceContext is the traffic vectorizer: it aggregates
// cleaned connection records into per-tower traffic vectors and z-score
// normalises them. It pulls record batches from src — thousands of
// records per interface call — and shards them by tower ID across a
// worker pool of per-tower slot accumulators. Peak memory is
// O(towers × slots) for the accumulators plus a bounded number of
// in-flight record batches — never O(records) — so a trace of any length
// can be vectorised in constant space per tower.
//
// The record stream is typically a trace ingestion source wrapped in
// trace.CleanSourceWindow, or a synthetic city's log source. Following
// the paper's chunking of logs into 10-minute segments, a record's bytes
// are attributed to the slot containing its start time; records outside
// the aggregation window are dropped, and every tower appearing in the
// stream gets a row even if all its records fall outside the window.
// Tower locations are taken from the supplied tower infos (resolved
// during preprocessing); towers absent from the infos still get a vector
// with a zero location.
//
// Cancellation and worker fault isolation: ctx is observed between source
// batches (a Background context costs nothing), a panic inside a shard
// worker — or inside the source itself — is returned as a
// *panicsafe.Error instead of crashing the process, and on any early
// exit — cancellation, source failure or worker panic — every shard
// worker drains and terminates before the call returns.
func VectorizeSourceContext(ctx context.Context, src trace.Source, towers []trace.TowerInfo, opts VectorizerOptions) (*Dataset, error) {
	if src == nil {
		return nil, fmt.Errorf("pipeline: nil source")
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	days := opts.effectiveDays()
	slots := days * (1440 / opts.SlotMinutes)
	end := opts.Start.Add(time.Duration(days) * 24 * time.Hour)
	slotDur := time.Duration(opts.SlotMinutes) * time.Minute

	workers := opts.Workers
	shards := make([]map[int]linalg.Vector, workers)
	chans := make([]chan []trace.Record, workers)
	// Drained batches return to the free list so steady-state ingestion
	// reuses a fixed set of buffers instead of allocating per batch.
	free := make(chan []trace.Record, 4*workers)
	// A worker that panics latches the first error and raises stop; the
	// producer stops feeding, and the worker itself KEEPS DRAINING its
	// channel (discarding batches) so the producer can never deadlock on
	// a send to a dead shard.
	var (
		stop      atomic.Bool
		errOnce   sync.Once
		workerErr error
		wg        sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { workerErr = err })
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		shards[w] = make(map[int]linalg.Vector)
		chans[w] = make(chan []trace.Record, 2)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := shards[w]
			var cur []trace.Record
			accumulate := func() error {
				for _, r := range cur {
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
				return nil
			}
			for batch := range chans[w] {
				if !stop.Load() {
					cur = batch
					if err := panicsafe.Call(accumulate); err != nil {
						fail(err)
					}
				}
				select {
				case free <- batch[:0]:
				default:
				}
			}
		}(w)
	}

	newBatch := func() []trace.Record {
		select {
		case b := <-free:
			return b
		default:
			return make([]trace.Record, 0, sourceBatchSize)
		}
	}
	pending := make([][]trace.Record, workers)
	for w := range pending {
		pending[w] = newBatch()
	}

	done := ctx.Done()
	inp := trace.GetBatch()
	// The read loop runs under panic recovery: a panicking source would
	// otherwise unwind this goroutine before the shard channels close,
	// leaving every worker blocked on its channel forever.
	srcErr := panicsafe.Call(func() error {
		for {
			if stop.Load() || (done != nil && ctx.Err() != nil) {
				return nil
			}
			n, err := src.NextBatch(*inp)
			for _, r := range (*inp)[:n] {
				w := r.TowerID % workers
				if w < 0 {
					w += workers
				}
				pending[w] = append(pending[w], r)
				if len(pending[w]) >= sourceBatchSize {
					chans[w] <- pending[w]
					pending[w] = newBatch()
				}
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
	for w := range chans {
		if len(pending[w]) > 0 {
			chans[w] <- pending[w]
		}
		close(chans[w])
	}
	wg.Wait()
	if workerErr != nil {
		return nil, fmt.Errorf("pipeline: vectorizing: %w", workerErr)
	}
	if srcErr != nil {
		return nil, fmt.Errorf("pipeline: reading source: %w", srcErr)
	}
	if done != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Shards are disjoint by construction (tower → worker is a function),
	// so the merge is a plain union.
	total := 0
	for _, shard := range shards {
		total += len(shard)
	}
	if total == 0 {
		return nil, ErrEmptyDataset
	}
	towerIDs := make([]int, 0, total)
	byID := make(map[int]linalg.Vector, total)
	for _, shard := range shards {
		for id, vec := range shard {
			towerIDs = append(towerIDs, id)
			byID[id] = vec
		}
	}
	sort.Ints(towerIDs)
	raw := make([]linalg.Vector, len(towerIDs))
	for i, id := range towerIDs {
		raw[i] = byID[id]
	}

	locByID := make(map[int]geo.Point, len(towers))
	for _, t := range towers {
		if t.Resolved {
			locByID[t.TowerID] = t.Location
		}
	}
	return assemble(towerIDs, raw, locByID, opts, days)
}
