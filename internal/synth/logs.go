package synth

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/trace"
)

// LogOptions tune the CDR log LogSource emits beyond what Config carries.
type LogOptions struct {
	// MaxRecordsPerSlot caps how many connection records one tower emits in
	// one slot; traffic is split across that many users. Zero means the
	// default of 4.
	MaxRecordsPerSlot int
	// TimeMajor interleaves the towers and emits records in slot order —
	// the order a live network feed delivers them, with timestamps
	// non-decreasing at slot granularity. The default (false) is
	// tower-major: each tower's full history in turn, the layout of a
	// per-tower CDR export. The cleaned aggregate is identical either way;
	// the record sequences differ (and so do the injected duplicates).
	TimeMajor bool
}

func (o LogOptions) withDefaults() LogOptions {
	if o.MaxRecordsPerSlot <= 0 {
		o.MaxRecordsPerSlot = 4
	}
	return o
}

// LogStream is the synthetic CDR log of a city as a pull-based
// trace.Source, so it flows straight into the streaming cleaner and
// vectorizer without the record slice ever being materialised. It walks a
// cursor over the (tower, slot) cells of the ground truth and emits one
// cell's records at a time, straight into the caller's batch, or into a
// reused buffer that NextBatch copies out when the batch has no room for
// a whole cell; memory stays at one cell's records whatever the log's
// length.
type LogStream struct {
	em        logEmitter
	series    []TowerSeries
	towers    []Tower // towers[i] is the tower of series[i]
	slots     int
	timeMajor bool
	// cell is the next (tower, slot) cell to emit, of cells in all.
	cell, cells int
	buf         []trace.Record // the current cell's records, for a short dst
	pos         int            // next undelivered record of buf
	hint        int
	err         error // the series check's failure, terminal from the start
}

// LogSource streams the CDR log of the given ground-truth series: each
// slot's traffic split across a random set of subscribers, plus the
// injected duplicated and conflicting records the preprocessing stage of
// the paper has to eliminate. The clean portion of the log aggregates back
// exactly to the input series. Records come tower-major (each tower's
// slots in order), or slot-major across all towers with
// LogOptions.TimeMajor; the sequence is fully determined by the city seed.
// A series of an unknown tower or of the wrong length makes the whole
// stream that error.
func (c *City) LogSource(series []TowerSeries, opts LogOptions) *LogStream {
	opts = opts.withDefaults()
	cfg := c.Config
	users := cfg.Users
	if users <= 0 {
		users = 1
	}
	s := &LogStream{
		em: logEmitter{
			cfg:     cfg,
			opts:    opts,
			rng:     rand.New(rand.NewSource(cfg.Seed*999_331 + 7)),
			slotDur: time.Duration(cfg.SlotMinutes) * time.Minute,
			users:   users,
		},
		series:    series,
		slots:     cfg.TotalSlots(),
		timeMajor: opts.TimeMajor,
	}
	s.towers, s.err = c.seriesTowers(series)
	if s.err == nil {
		s.cells = len(series) * s.slots
		s.hint = c.estimateLogRecords(series, opts)
	}
	return s
}

// seriesTowers returns the tower of each series, checking that every
// series covers the configured trace.
func (c *City) seriesTowers(series []TowerSeries) ([]Tower, error) {
	byID := make(map[int]Tower, len(c.Towers))
	for _, t := range c.Towers {
		byID[t.ID] = t
	}
	towers := make([]Tower, len(series))
	for i, s := range series {
		tower, ok := byID[s.TowerID]
		if !ok {
			return nil, fmt.Errorf("synth: series references unknown tower %d", s.TowerID)
		}
		if len(s.Bytes) != c.Config.TotalSlots() {
			return nil, fmt.Errorf("synth: series for tower %d has %d slots, want %d", s.TowerID, len(s.Bytes), c.Config.TotalSlots())
		}
		towers[i] = tower
	}
	return towers, nil
}

// estimateLogRecords predicts the emitted log length for preallocation:
// every traffic-carrying slot emits on average (1+MaxRecordsPerSlot)/2
// records, each duplicated or conflicted with the configured
// probabilities. Counting the non-zero slots keeps the estimate
// proportional to the actual emission for sparse traffic (the generator
// skips empty slots). It is a hint, never a bound.
func (c *City) estimateLogRecords(series []TowerSeries, opts LogOptions) int {
	active := 0
	for _, s := range series {
		for _, b := range s.Bytes {
			if b > 0 {
				active++
			}
		}
	}
	perSlot := float64(1+opts.MaxRecordsPerSlot) / 2
	perSlot *= 1 + c.Config.DuplicateFraction + c.Config.ConflictFraction
	return int(float64(active) * perSlot)
}

// SizeHint estimates how many records the stream will yield, letting
// collectors preallocate (trace.SizeHinter).
func (s *LogStream) SizeHint() int { return s.hint }

// NextBatch copies up to len(dst) generated records into dst; see
// trace.Source for the contract. The terminal error — io.EOF at the end
// of the log, or the series check's error — is sticky.
func (s *LogStream) NextBatch(dst []trace.Record) (int, error) {
	n := 0
	for n < len(dst) {
		if s.pos == len(s.buf) {
			if s.cell == s.cells {
				return n, s.terminalErr()
			}
			// A cell is at most MaxRecordsPerSlot records, each with a
			// possible duplicate and conflict: where dst has room for
			// that many, the cell goes straight into it, with no copy.
			if len(dst)-n >= 3*s.em.opts.MaxRecordsPerSlot {
				n = len(s.next(dst[:n:len(dst)]))
				continue
			}
			s.buf, s.pos = s.next(s.buf[:0]), 0
			continue
		}
		m := copy(dst[n:], s.buf[s.pos:])
		n += m
		s.pos += m
	}
	return n, nil
}

// next appends the records of the cell under the cursor to dst and
// advances the cursor.
func (s *LogStream) next(dst []trace.Record) []trace.Record {
	i, slot := s.cell/s.slots, s.cell%s.slots
	if s.timeMajor {
		i, slot = s.cell%len(s.series), s.cell/len(s.series)
	}
	s.cell++
	return s.em.slot(dst, s.towers[i], slot, s.series[i].Bytes[slot])
}

// Close drops the undelivered records. Subsequent NextBatch calls return
// io.EOF, or the series check's error. Close is idempotent and unnecessary
// once NextBatch has returned a non-nil error.
func (s *LogStream) Close() {
	s.cell = s.cells
	s.buf, s.pos = nil, 0
}

func (s *LogStream) terminalErr() error {
	if s.err != nil {
		return s.err
	}
	return io.EOF
}

// logEmitter turns one (tower, slot, bytes) cell of the ground truth into
// CDR records: the slot's traffic split across a random set of
// subscribers, plus the injected duplicates and conflicts. The rng is
// consumed in emission order, so a given traversal order is fully
// deterministic under the city seed.
type logEmitter struct {
	cfg     Config
	opts    LogOptions
	rng     *rand.Rand
	slotDur time.Duration
	users   int
}

// slot appends the cell's records to dst and returns the extended slice.
func (e *logEmitter) slot(dst []trace.Record, tower Tower, slot int, total float64) []trace.Record {
	if total <= 0 {
		return dst
	}
	start := e.cfg.Start.Add(time.Duration(slot) * e.slotDur)
	n := 1 + e.rng.Intn(e.opts.MaxRecordsPerSlot)
	remaining := int64(total)
	for i := 0; i < n && remaining > 0; i++ {
		var bytes int64
		if i == n-1 {
			bytes = remaining
		} else {
			bytes = int64(float64(remaining) * (0.2 + 0.6*e.rng.Float64()) / float64(n-i))
			if bytes <= 0 {
				bytes = 1
			}
			if bytes > remaining {
				bytes = remaining
			}
		}
		remaining -= bytes
		offset := time.Duration(e.rng.Int63n(int64(e.slotDur) / 2))
		dur := time.Duration(e.rng.Int63n(int64(e.slotDur)/2)) + time.Second
		tech := Tech3GOrLTE(e.rng)
		rec := trace.Record{
			UserID:  e.rng.Intn(e.users),
			Start:   start.Add(offset),
			End:     start.Add(offset).Add(dur),
			TowerID: tower.ID,
			Address: tower.Address,
			Bytes:   bytes,
			Tech:    tech,
		}
		dst = append(dst, rec)
		// Redundant logs: exact copies of the record just emitted.
		if e.rng.Float64() < e.cfg.DuplicateFraction {
			dst = append(dst, rec)
		}
		// Conflicting logs: same logical connection, smaller byte
		// counter (a partial export). Clean keeps the larger copy,
		// so the cleaned aggregate still matches the series.
		if e.rng.Float64() < e.cfg.ConflictFraction && rec.Bytes > 1 {
			conflict := rec
			conflict.Bytes = rec.Bytes / 2
			dst = append(dst, conflict)
		}
	}
	return dst
}

// Tech3GOrLTE draws a radio technology with the rough LTE share of a 2014
// metropolitan network.
func Tech3GOrLTE(rng *rand.Rand) trace.Technology {
	if rng.Float64() < 0.55 {
		return trace.TechLTE
	}
	return trace.Tech3G
}
