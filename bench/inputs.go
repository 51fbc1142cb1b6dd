package main

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/synth"
	"repro/internal/trace"
)

// cityConfig is cmd/served's synthetic city (synth.SmallConfig with 50
// subscribers per tower and the default 3 % duplicate and 1 % conflicting
// records) at the given size and seed.
func cityConfig(towers, days int, seed int64) synth.Config {
	cfg := synth.SmallConfig()
	cfg.Towers = towers
	cfg.Users = 50 * towers
	cfg.Days = days
	cfg.Seed = seed
	return cfg
}

// generateSeries is city.GenerateSeries spread over the available cores:
// each tower's series is seeded by (city seed, tower id) alone, so the
// result does not depend on who generates which tower.
func generateSeries(city *synth.City) ([]synth.TowerSeries, error) {
	out := make([]synth.TowerSeries, len(city.Towers))
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(out) && errs[g] == nil; i += workers {
				out[i], errs[g] = city.GenerateTowerSeries(i)
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// cdr is a generated connection log: the records starting before the split
// instant rendered as in-memory CSV, the rest kept as a slice. The
// generator emits an injected duplicate or conflicting copy right after
// its original, so counting adjacent records with the same connection key
// gives exactly what the cleaner must remove.
type cdr struct {
	csv                            []byte
	records, duplicates, conflicts int
	tail                           []trace.Record
}

// renderCDR streams the city's log (default 4 records per tower-slot) into
// CSV bytes up to split and into a record slice from there on; a zero
// split renders everything as CSV.
func renderCDR(city *synth.City, series []synth.TowerSeries, opts synth.LogOptions, split time.Time) (*cdr, error) {
	src := city.LogSource(series, opts)
	defer src.Close()
	var (
		out  cdr
		buf  bytes.Buffer
		w    = trace.NewCSVWriter(&buf)
		prev trace.Record
	)
	buf.Grow(src.SizeHint() * 120)
	err := trace.ForEachBatch(src, func(batch []trace.Record) error {
		head := batch
		if !split.IsZero() {
			for i, rec := range batch {
				if !rec.Start.Before(split) {
					head = batch[:i]
					out.tail = append(out.tail, batch[i:]...)
					break
				}
			}
		}
		for _, rec := range head {
			if sameConnection(rec, prev) {
				if rec.Bytes == prev.Bytes {
					out.duplicates++
				} else {
					out.conflicts++
				}
			}
			prev = rec
		}
		return w.WriteBatch(head)
	})
	if err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	out.csv = buf.Bytes()
	out.records = w.Count()
	return &out, nil
}

// sameConnection reports whether two records share the cleaner's
// connection key: user, tower and interval.
func sameConnection(a, b trace.Record) bool {
	return a.UserID == b.UserID && a.TowerID == b.TowerID && a.Start.Equal(b.Start) && a.End.Equal(b.End)
}
