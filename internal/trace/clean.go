package trace

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"time"
)

// CleanStats summarises what the preprocessing stage removed or repaired.
type CleanStats struct {
	// Input is the number of records before cleaning.
	Input int
	// Invalid is the number of records dropped for failing validation
	// (negative bytes, reversed intervals, unknown technology, ...).
	Invalid int
	// Duplicates is the number of exact duplicate records removed.
	Duplicates int
	// Conflicts is the number of conflicting records merged (same user,
	// tower and interval but different byte counts).
	Conflicts int
	// Output is the number of records that survive cleaning.
	Output int
}

// Cleaner is the single-pass streaming form of the preprocessing step of
// Section 2.2: it drops structurally invalid records, removes exact
// duplicates and resolves conflicting logs, one record at a time. Its
// per-connection state is just the largest byte count seen for each
// connection (user, tower, start, end) — not the full record — so memory
// is O(distinct connections) with a small constant, not O(records).
//
// The state is indexed by where CDR feeds are local. A top-level index
// maps (tower, start-time hour) to a cell; each cell is a small
// open-addressed table of the connections that started at that tower in
// that hour. Exports are near-sorted by start time within a tower, so
// consecutive records land in the same few cells — one cell many times
// in a row for a tower-major export, towers × 1–2 live cells for a
// time-major feed — and the working set is cache-resident instead of one
// hash table of every connection ever seen, where each record is a cache
// and TLB miss. Both levels are still hash lookups, so the cleaner is
// exact for arbitrarily reordered input and a hot cell (10⁴ connections
// in one tower-hour) stays O(1) per record; only speed depends on order.
//
// Conflict resolution keeps the largest byte count, the conservative
// choice an operator makes when the same session was exported twice with
// partial counters. Because a larger copy can arrive after the first copy
// has already been forwarded downstream, the Cleaner resolves such late
// conflicts by forwarding an amendment record carrying only the byte
// delta (the technique of retraction/correction deltas in streaming
// systems): for every connection, the byte counts forwarded downstream
// always sum to exactly the largest copy observed. Additive consumers —
// the vectorizer, traffic density — therefore see exactly the same totals
// as the batch Clean.
type Cleaner struct {
	stats CleanStats
	conns int    // connections currently retained, over all cells
	seed  uint64 // per-cleaner hash seed: a feed cannot aim at one slot
	swept int64  // horizon of the last sweep (evictBefore), in Unix nanoseconds

	cells  []cell // open-addressed by key, len a power of two, at most three-quarters full
	ncells int
	last   *cell // one-entry cache in front of cells; nil after cells is rebuilt

	slab []conn                                 // tail of the current slab, carved into cell tables
	free [maxPooledLg - minTableLg + 1][][]conn // cleared tables awaiting reuse, by size class
}

// cellWidth is the span of start times that share a cell: wide enough
// that a tower's records stay in one cell for many records in a row,
// narrow enough that a cell of ordinary traffic is a few cache lines.
const cellWidth = int64(time.Hour)

// Cell tables have 1<<lg slots, from 1<<minTableLg up. Those up to
// 1<<maxPooledLg slots are carved from slabs of 1<<slabLg and recycled
// through Cleaner.free when a cell outgrows or vacates them, so the
// common small cell costs no allocation of its own; larger ones are
// allocated and dropped singly. The cell index starts at 1<<minIndexLg.
const (
	minTableLg  = 3
	maxPooledLg = 10
	slabLg      = 13
	minIndexLg  = 6
)

type cellKey struct {
	tower  int
	bucket int64 // floor(start / cellWidth)
}

func cellOf(tower int, start int64) cellKey {
	bucket := start / cellWidth
	if start%cellWidth < 0 {
		bucket-- // floor: the hours before 1970 are as wide as the rest
	}
	return cellKey{tower: tower, bucket: bucket}
}

// cell is the dedup state of one (tower, hour): an open-addressed,
// linearly probed table kept at most three-quarters full.
type cell struct {
	key  cellKey
	tab  []conn // len is a power of two; nil marks a free slot of Cleaner.cells
	used int
}

// conn is the per-connection dedup state: the largest byte count seen,
// stored complemented. Released tables are cleared, so a free slot must
// be the zero value, yet every other field of a stored connection may be
// zero: user 0 at tower 0 for no time at 1970-01-01T00:00:00Z is a valid
// record. valid() requires Bytes ≥ 0, so ^Bytes is negative and the
// complement of a stored count is never zero.
type conn struct {
	user       int
	start, end int64
	notBytes   int64 // ^largest byte count; 0 marks a free slot
}

// NewCleaner returns a streaming cleaner with exact dedup state: it
// retains every connection it has seen, so it is exact for arbitrarily
// reordered input, at 32 bytes per table slot — ~77 bytes per distinct
// connection at ~15 connections per tower-hour, less on denser feeds, up
// to ~380 for a feed so sparse that every connection is alone in its
// tower-hour. Only CleanedSource.EvictBefore ever forgets a connection.
func NewCleaner() *Cleaner {
	return &Cleaner{
		seed:  rand.Uint64(),
		swept: math.MinInt64,
		cells: make([]cell, 1<<minIndexLg),
	}
}

// Observe processes one record and reports whether (and what) to forward
// downstream. The forwarded record is the input record itself for the
// first copy of a connection, or an amendment carrying the byte delta
// when a later copy raises the connection's byte count.
func (c *Cleaner) Observe(r Record) (Record, bool) {
	if c.observe(&r) {
		return r, true
	}
	return Record{}, false
}

// observe is Observe in place: it reports whether to forward *r, having
// rewritten r.Bytes to the delta when *r is an amendment.
func (c *Cleaner) observe(r *Record) bool {
	c.stats.Input++
	if !r.valid() {
		c.stats.Invalid++
		return false
	}
	start, end := r.Start.UnixNano(), r.End.UnixNano()
	k := cellOf(r.TowerID, start)
	cl := c.last
	if cl == nil || cl.key != k {
		cl = c.cell(k)
		c.last = cl
	}
	h := c.hash(r.UserID, start, end)
	e := probe(cl.tab, h, r.UserID, start, end)
	if e.notBytes == 0 {
		if (cl.used+1)*4 > len(cl.tab)*3 {
			c.rebuild(cl, tableLg(cl.used+1))
			e = probe(cl.tab, h, r.UserID, start, end)
		}
		*e = conn{user: r.UserID, start: start, end: end, notBytes: ^r.Bytes}
		cl.used++
		c.conns++
		c.stats.Output++
		return true
	}
	seen := ^e.notBytes
	if r.Bytes == seen {
		c.stats.Duplicates++
		return false
	}
	c.stats.Conflicts++
	if r.Bytes < seen {
		return false
	}
	r.Bytes, e.notBytes = r.Bytes-seen, ^r.Bytes
	c.stats.Output++
	return true
}

// cell returns the cell for k, creating it if need be.
func (c *Cleaner) cell(k cellKey) *cell {
	h := c.hash(k.tower, k.bucket, 0)
	cl := probeCell(c.cells, h, k)
	if cl.tab == nil {
		if (c.ncells+1)*4 > len(c.cells)*3 {
			c.reindex(2 * len(c.cells))
			cl = probeCell(c.cells, h, k)
		}
		// Start at the size the average cell so far has needed (within
		// what the pool recycles), so that on a feed of even density most
		// cells never have to grow.
		lg := min(tableLg(c.conns/max(c.ncells, 1)), maxPooledLg)
		*cl = cell{key: k, tab: c.alloc(lg)}
		c.ncells++
	}
	return cl
}

// probeCell returns the slot of cells holding k, or the free slot where
// it belongs.
func probeCell(cells []cell, h uint64, k cellKey) *cell {
	mask := uint64(len(cells) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if cl := &cells[i]; cl.tab == nil || cl.key == k {
			return cl
		}
	}
}

// reindex re-places every cell in a fresh index of n slots.
func (c *Cleaner) reindex(n int) {
	old := c.cells
	c.cells = make([]cell, n)
	for i := range old {
		if cl := &old[i]; cl.tab != nil {
			*probeCell(c.cells, c.hash(cl.key.tower, cl.key.bucket, 0), cl.key) = *cl
		}
	}
	c.last = nil
}

// hash mixes a connection's in-cell key with the cleaner's seed
// (multiply-fold, as in wyhash); tables index by its low bits.
func (c *Cleaner) hash(user int, start, end int64) uint64 {
	hi, lo := bits.Mul64(uint64(user)^c.seed, uint64(start)^0x9e3779b97f4a7c15)
	hi, lo = bits.Mul64(hi^lo^uint64(end), 0xd6e8feb86659fd93)
	return hi ^ lo
}

// probe returns the slot holding the connection, or the free slot where
// it belongs. tab always has a free slot.
func probe(tab []conn, h uint64, user int, start, end int64) *conn {
	mask := uint64(len(tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &tab[i]
		if e.notBytes == 0 || (e.user == user && e.start == start && e.end == end) {
			return e
		}
	}
}

// tableLg returns the size class of the smallest table that holds n
// connections at most three-quarters full.
func tableLg(n int) int {
	lg := minTableLg
	for n*4 > 3<<lg {
		lg++
	}
	return lg
}

// rebuild moves cl's connections into a fresh table of 1<<lg slots and
// releases the old one.
func (c *Cleaner) rebuild(cl *cell, lg int) {
	tab := c.alloc(lg)
	for i := range cl.tab {
		if e := &cl.tab[i]; e.notBytes != 0 {
			*probe(tab, c.hash(e.user, e.start, e.end), e.user, e.start, e.end) = *e
		}
	}
	c.release(cl.tab)
	cl.tab = tab
}

// alloc returns an empty table of 1<<lg slots.
func (c *Cleaner) alloc(lg int) []conn {
	n := 1 << lg
	if lg > maxPooledLg {
		return make([]conn, n)
	}
	if f := c.free[lg-minTableLg]; len(f) > 0 {
		c.free[lg-minTableLg] = f[:len(f)-1]
		return f[len(f)-1]
	}
	if len(c.slab) < n {
		c.slab = make([]conn, 1<<slabLg)
	}
	tab := c.slab[:n:n]
	c.slab = c.slab[n:]
	return tab
}

// release takes back a table that no cell references any more.
func (c *Cleaner) release(tab []conn) {
	lg := bits.TrailingZeros(uint(len(tab)))
	if lg > maxPooledLg {
		return
	}
	clear(tab)
	c.free[lg-minTableLg] = append(c.free[lg-minTableLg], tab)
}

// evictBefore drops every cell whose hour ends at or before horizon
// (Unix nanoseconds), releasing its table, once horizon has advanced by
// at least a day since the last sweep. A sweep visits every cell, and
// cells exist only for hours that saw a record, so a day between sweeps
// keeps the cost per record O(1), amortised.
func (c *Cleaner) evictBefore(horizon int64) {
	if horizon < c.swept+int64(24*time.Hour) {
		return
	}
	c.swept = horizon
	cut := cellOf(0, horizon).bucket // a cell's hour ends at or before horizon iff its bucket is below cut
	vacated := false
	for i := range c.cells {
		if cl := &c.cells[i]; cl.tab != nil && cl.key.bucket < cut {
			c.conns -= cl.used
			c.release(cl.tab)
			*cl = cell{}
			c.ncells--
			vacated = true
		}
	}
	if vacated {
		c.reindex(len(c.cells)) // a vacated slot would cut the probe runs through it
	}
}

// Len returns the number of distinct connections whose dedup state is
// currently retained.
func (c *Cleaner) Len() int { return c.conns }

// Stats returns the counters accumulated so far. Output counts forwarded
// records, including amendments.
func (c *Cleaner) Stats() CleanStats { return c.stats }

// CleanedSource filters a Source through a streaming Cleaner: records
// flow through the cleaner a batch at a time and are compacted in place.
type CleanedSource struct {
	src     Source
	cleaner *Cleaner
}

// CleanSource wraps src so that every record pulled from the returned
// source has passed a streaming Cleaner (see NewCleaner). Its dedup state
// is exact and grows with the distinct connections of the trace unless
// EvictBefore bounds it. Stats are available at any time (typically after
// the stream is drained).
func CleanSource(src Source) *CleanedSource {
	return &CleanedSource{src: src, cleaner: NewCleaner()}
}

// NextBatch fills dst with up to len(dst) records that survived
// cleaning, compacting each underlying batch in place. See Source for
// the error contract.
func (s *CleanedSource) NextBatch(dst []Record) (int, error) {
	out := 0
	for out == 0 && len(dst) > 0 {
		n, err := s.src.NextBatch(dst)
		for i := 0; i < n; i++ {
			if s.cleaner.observe(&dst[i]) {
				if out != i {
					dst[out] = dst[i]
				}
				out++
			}
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Stats returns the cleaning counters accumulated so far.
func (s *CleanedSource) Stats() CleanStats { return s.cleaner.Stats() }

// EvictBefore forgets the connections of every tower-hour that ends at or
// before horizon, sweeping at most once per day of horizon advance. A
// later copy of a forgotten connection is forwarded as new, so horizon
// must be an instant before which the consumer drops every record anyway,
// and must never move backwards: a sliding window's admission horizon
// (window.Window.Horizon). Eviction then changes nothing the consumer keeps.
func (s *CleanedSource) EvictBefore(horizon time.Time) {
	if !horizon.IsZero() {
		s.cleaner.evictBefore(horizon.UnixNano())
	}
}

// Clean is the batch wrapper over the streaming Cleaner: it drops
// structurally invalid records, removes exact duplicates and resolves
// conflicting logs, keeping the largest byte count of each conflicting
// pair. Amendment deltas emitted by the streaming core are folded back
// into the first copy of their connection, so the output carries exactly
// one record per logical connection (fields other than Bytes are taken
// from the first copy seen). The returned slice is sorted by start time,
// then tower, then user, then end time, giving the pipeline a
// deterministic order.
func Clean(records []Record) ([]Record, CleanStats) {
	c := NewCleaner()
	fwd := make([]Record, 0, len(records))
	for i := range records {
		if r, ok := c.Observe(records[i]); ok {
			fwd = append(fwd, r)
		}
	}
	// The order is total over connections and the sort stable, so a first
	// copy ends up directly ahead of its own amendments.
	byConnection := func(a, b Record) int {
		return cmp.Or(a.Start.Compare(b.Start), cmp.Compare(a.TowerID, b.TowerID),
			cmp.Compare(a.UserID, b.UserID), a.End.Compare(b.End))
	}
	slices.SortStableFunc(fwd, byConnection)
	out := fwd[:0]
	for _, r := range fwd {
		if n := len(out); n > 0 && byConnection(out[n-1], r) == 0 {
			out[n-1].Bytes += r.Bytes
			continue
		}
		out = append(out, r)
	}
	stats := c.Stats()
	stats.Output = len(out)
	return out, stats
}
