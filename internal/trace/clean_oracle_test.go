package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// key identifies the logical connection a record describes. Two records
// with the same key are either duplicates (same bytes) or conflicting
// copies (different bytes).
type key struct {
	userID  int
	towerID int
	start   int64
	end     int64
}

func (r Record) key() key {
	return key{userID: r.UserID, towerID: r.TowerID, start: r.Start.UnixNano(), end: r.End.UnixNano()}
}

// oracleCleaner is the flat-map cleaner the locality-indexed Cleaner
// replaced, kept as the reference: one map of every connection, with the
// largest byte count seen. Same rules, no layout.
type oracleCleaner struct {
	stats CleanStats
	max   map[key]int64
}

func newOracleCleaner() *oracleCleaner {
	return &oracleCleaner{max: make(map[key]int64)}
}

func (c *oracleCleaner) Observe(r Record) (Record, bool) {
	c.stats.Input++
	if r.Validate() != nil {
		c.stats.Invalid++
		return Record{}, false
	}
	k := r.key()
	prev, seen := c.max[k]
	c.max[k] = max(prev, r.Bytes)
	switch {
	case !seen:
		c.stats.Output++
		return r, true
	case r.Bytes == prev:
		c.stats.Duplicates++
		return Record{}, false
	case r.Bytes < prev:
		c.stats.Conflicts++
		return Record{}, false
	}
	c.stats.Conflicts++
	c.stats.Output++
	r.Bytes -= prev
	return r, true
}

// forget drops every connection that started before cut (Unix
// nanoseconds): the exact horizon the Cleaner approximates from below.
func (c *oracleCleaner) forget(cut int64) {
	for k := range c.max {
		if k.start < cut {
			delete(c.max, k)
		}
	}
}

// retained returns the largest byte count the Cleaner holds for k.
func (c *Cleaner) retained(k key) (int64, bool) {
	ck := cellOf(k.towerID, k.start)
	cl := probeCell(c.cells, c.hash(ck.tower, ck.bucket, 0), ck)
	if cl.tab == nil {
		return 0, false
	}
	e := probe(cl.tab, c.hash(k.userID, k.start, k.end), k.userID, k.start, k.end)
	return ^e.notBytes, e.notBytes != 0
}

// matchOracle feeds the same records to the Cleaner and the oracle. With
// window 0 nothing is forgotten, and the two must agree at every step on
// the verdict, the forwarded record and the retained-connection count,
// and on the final stats. With window > 0 a monotone cut trails the
// newest valid start by window, and both forget what lies behind it: the
// Cleaner (evictBefore) whole tower-hours, at most
// once per day of cut advance, and the oracle, whenever the Cleaner
// sweeps, every connection that started before the cut. A record starting
// at or after the cut must then get the oracle's verdict and forwarded
// record, and after every sweep the Cleaner must still hold every
// connection the oracle holds, at the same byte count. Records behind the cut may go
// either way: their consumer drops them.
func matchOracle(t testing.TB, records []Record, window time.Duration) {
	t.Helper()
	c, o := NewCleaner(), newOracleCleaner()
	cut, newest := int64(math.MinInt64), int64(math.MinInt64)
	for i, r := range records {
		got, gotOK := c.Observe(r)
		want, wantOK := o.Observe(r)
		if (!r.valid() || r.Start.UnixNano() >= cut) && (gotOK != wantOK || got != want) {
			t.Fatalf("window %v, record %d %+v: forwarded %+v (%v), oracle %+v (%v)", window, i, r, got, gotOK, want, wantOK)
		}
		if window == 0 {
			if c.Len() != len(o.max) {
				t.Fatalf("after record %d: %d connections retained, oracle %d", i, c.Len(), len(o.max))
			}
			continue
		}
		if r.valid() {
			newest = max(newest, r.Start.UnixNano())
			cut = max(cut, newest-int64(window))
		}
		swept := c.swept
		if c.evictBefore(cut); c.swept == swept {
			continue
		}
		o.forget(cut)
		for k, bytes := range o.max {
			if got, ok := c.retained(k); !ok || got != bytes {
				t.Fatalf("window %v, after the sweep at record %d: connection %+v retained %v with %d bytes, oracle %d", window, i, k, ok, got, bytes)
			}
		}
	}
	got, want := c.Stats(), o.stats
	if window > 0 {
		// Behind the cut, a copy may count as new rather than removed.
		got.Duplicates, got.Conflicts, got.Output = want.Duplicates, want.Conflicts, want.Output
	}
	if got != want {
		t.Fatalf("window %v: stats %+v, oracle %+v", window, c.Stats(), o.stats)
	}
}

// feed generates a small city-like log: towers × slots of ten minutes, a
// few connections per tower-slot, with duplicate, smaller, larger and
// invalid copies injected right after their original or `lag` records
// later. order is "tower", "time" or "shuffled".
func feed(rng *rand.Rand, towers, slots, lag int, order string) []Record {
	base := validRecord()
	var out, late []Record
	emit := func(tower, slot int) {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			r := base
			r.TowerID = tower
			r.UserID = rng.Intn(40)
			r.Start = base.Start.Add(time.Duration(slot)*10*time.Minute + time.Duration(rng.Int63n(int64(5*time.Minute))))
			r.End = r.Start.Add(time.Duration(1 + rng.Int63n(int64(5*time.Minute))))
			r.Bytes = 2 + rng.Int63n(1000)
			out = append(out, r)
			c := r
			switch rng.Intn(12) {
			case 0:
			case 1:
				c.Bytes = r.Bytes / 2
			case 2:
				c.Bytes = r.Bytes * 3
			case 3:
				c.Bytes = -1
			default:
				continue
			}
			if rng.Intn(2) == 0 {
				out = append(out, c)
			} else {
				late = append(late, c)
			}
			if len(late) > lag {
				out, late = append(out, late[0]), late[1:]
			}
		}
	}
	if order == "time" {
		for slot := 0; slot < slots; slot++ {
			for tower := 0; tower < towers; tower++ {
				emit(tower, slot)
			}
		}
	} else {
		for tower := 0; tower < towers; tower++ {
			for slot := 0; slot < slots; slot++ {
				emit(tower, slot)
			}
		}
	}
	out = append(out, late...)
	if order == "shuffled" {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// window=N trails the cut N minutes behind the newest start (0: no cut)
// over a feed of four days, so the cut sweeps the Cleaner's state a few
// times.
func TestCleanerMatchesOracle(t *testing.T) {
	for _, order := range []string{"tower", "time", "shuffled"} {
		for _, window := range []int{0, 2, 1000} {
			records := feed(rand.New(rand.NewSource(int64(window)+7)), 12, 600, 40, order)
			t.Run(fmt.Sprintf("%s/window=%d", order, window), func(t *testing.T) {
				matchOracle(t, records, time.Duration(window)*time.Minute)
			})
		}
	}
}

// The edges the cell index adds to the flat map: bucket arithmetic below
// the epoch and at a bucket boundary, and cells that eviction empties.
func TestCleanerMatchesOracleAtCellEdges(t *testing.T) {
	at := func(nanos int64, user int, bytes int64) Record {
		r := validRecord()
		r.UserID = user
		r.Start = time.Unix(0, nanos).UTC()
		r.End = r.Start.Add(time.Minute)
		r.Bytes = bytes
		return r
	}
	hour := int64(time.Hour)

	t.Run("pre-1970 starts", func(t *testing.T) {
		for nanos, want := range map[int64]int64{0: 0, 1: 0, hour - 1: 0, hour: 1, -1: -1, -hour: -1, -hour - 1: -2, -3*hour - 5: -4} {
			if got := cellOf(7, nanos).bucket; got != want {
				t.Errorf("start %d ns is in bucket %d, want the floor %d", nanos, got, want)
			}
		}
		var records []Record
		for _, nanos := range []int64{-1, 1, -hour, -hour + 1, -hour - 1, -3*hour - 5, 0, -1, -hour - 1, 1} {
			records = append(records, at(nanos, 1, 10))
		}
		matchOracle(t, records, 0)
	})

	t.Run("bucket boundary", func(t *testing.T) {
		// Same user and duration, starts 1 ns apart on either side of an
		// hour boundary: two connections, each with a conflicting copy.
		b := validRecord().Start.Truncate(time.Hour).UnixNano()
		matchOracle(t, []Record{at(b-1, 1, 10), at(b, 1, 10), at(b, 1, 30), at(b-1, 1, 5), at(b-1, 1, 10)}, 0)
	})

	t.Run("emptied cell is re-created", func(t *testing.T) {
		// Each round, the horizon moves a day and an hour on: the cell of
		// tower 7 at b is dropped whole, and so is the previous round's
		// cell at the old horizon, while the cell starting at the new
		// horizon survives. The connections at b then arrive again and
		// open a fresh cell as new connections (by documented design:
		// whoever set the horizon drops them).
		c := NewCleaner()
		b := validRecord().Start.Truncate(time.Hour).UnixNano()
		for round := int64(1); round <= 3; round++ {
			horizon := b + round*25*hour
			for u := 0; u < 6; u++ {
				for _, r := range []Record{at(b, u, 10), at(horizon, u, 10)} {
					if _, ok := c.Observe(r); !ok {
						t.Fatalf("round %d: new connection %+v dropped", round, r)
					}
					if _, ok := c.Observe(r); ok {
						t.Fatalf("round %d: duplicate of %+v forwarded", round, r)
					}
				}
			}
			if cells := min(round+1, 3); c.Len() != 6*int(cells) || c.ncells != int(cells) {
				t.Fatalf("round %d: %d connections in %d cells, want %d in %d", round, c.Len(), c.ncells, 6*cells, cells)
			}
			c.evictBefore(horizon)
			if c.Len() != 6 || c.ncells != 1 {
				t.Fatalf("round %d: %d connections in %d cells after the sweep, want 6 in 1", round, c.Len(), c.ncells)
			}
		}
		if want := (CleanStats{Input: 72, Duplicates: 36, Output: 36}); c.Stats() != want {
			t.Errorf("stats %+v, want %+v", c.Stats(), want)
		}
	})
}

// One tower-hour holding 20 000 distinct connections must cost about what
// the same number of connections spread over many cells costs: the cell
// table grows by doubling and stays a hash lookup.
func TestCleanerHotCellStaysLinear(t *testing.T) {
	const n = 20000
	base := validRecord()
	hot, spread := make([]Record, n), make([]Record, n)
	for i := range hot {
		r := base
		r.UserID = i
		r.Start = base.Start.Truncate(time.Hour).Add(time.Duration(i) * time.Microsecond)
		r.End = r.Start.Add(time.Minute)
		hot[i] = r
		r.TowerID = i % 500
		r.Start = r.Start.Add(time.Duration(i/500%20) * time.Hour)
		r.End = r.Start.Add(time.Minute)
		spread[i] = r
	}
	matchOracle(t, hot, 0)
	perRecord := func(records []Record) time.Duration {
		best := time.Duration(1 << 62)
		for try := 0; try < 5; try++ {
			c := NewCleaner()
			begin := time.Now()
			for i := range records {
				c.Observe(records[i])
			}
			best = min(best, time.Since(begin))
			if c.Len() != n {
				t.Fatalf("%d connections retained, want %d", c.Len(), n)
			}
		}
		return best
	}
	// A quadratic cell would be ~1000× here; 3× leaves room for noise.
	if h, s := perRecord(hot), perRecord(spread); h > 3*s {
		t.Errorf("hot cell took %v for %d records, spread feed %v", h, n, s)
	}
}

// FuzzCleanerMatchesOracle decodes bytes into a cut window and a record
// sequence drawn from a few towers, users, byte counts and start times
// that cluster around bucket boundaries and the epoch, so copies of one
// connection recur at every distance, and requires the Cleaner to agree
// with the flat-map oracle record for record at and after the cut.
func FuzzCleanerMatchesOracle(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{2, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 9})
	f.Add([]byte{3, 5, 0, 0, 7, 5, 0, 0, 9, 5, 0, 0, 7, 6, 0, 0, 7})
	f.Add([]byte{1, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<12 {
			return
		}
		window := []time.Duration{0, 1, time.Hour, 1000 * time.Minute}[data[0]%4]
		starts := []int64{0, -1, 1, -int64(time.Hour), int64(time.Hour) - 1, int64(time.Hour), 1406880000e9, 1406880000e9 + int64(time.Hour)}
		var records []Record
		for rest := data[1:]; len(rest) >= 4; rest = rest[4:] {
			r := validRecord()
			r.UserID = int(rest[0] % 4)
			r.TowerID = int(rest[0] / 4 % 4)
			r.Start = time.Unix(0, starts[rest[1]%8]+int64(rest[1]/8%4)).UTC()
			r.End = r.Start.Add(time.Duration(rest[2]%3) * time.Second)
			r.Bytes = int64(rest[3]%6) - 1 // -1 is invalid
			if rest[2] >= 250 {
				r.Tech = "5G"
			}
			records = append(records, r)
		}
		matchOracle(t, records, window)
	})
}
