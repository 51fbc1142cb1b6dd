package trace

import (
	"fmt"
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
// replaced, kept as the reference: one map of every connection, evicted
// by a full sweep. Same rules, no layout.
type oracleCleaner struct {
	stats  CleanStats
	max    map[key]cleanEntry
	window uint64
	seq    uint64
}

type cleanEntry struct {
	bytes int64
	seq   uint64
}

func newOracleCleaner(window int) *oracleCleaner {
	return &oracleCleaner{max: make(map[key]cleanEntry), window: uint64(max(window, 0))}
}

func (c *oracleCleaner) Observe(r Record) (Record, bool) {
	c.stats.Input++
	if r.Validate() != nil {
		c.stats.Invalid++
		return Record{}, false
	}
	c.seq++
	if c.window > 0 && uint64(len(c.max)) > 2*c.window {
		for k, e := range c.max {
			if e.seq < c.seq-c.window {
				delete(c.max, k)
			}
		}
	}
	k := r.key()
	prev, seen := c.max[k]
	c.max[k] = cleanEntry{bytes: max(prev.bytes, r.Bytes), seq: c.seq}
	switch {
	case !seen:
		c.stats.Output++
		return r, true
	case r.Bytes == prev.bytes:
		c.stats.Duplicates++
		return Record{}, false
	case r.Bytes < prev.bytes:
		c.stats.Conflicts++
		return Record{}, false
	}
	c.stats.Conflicts++
	c.stats.Output++
	r.Bytes -= prev.bytes
	return r, true
}

// matchOracle feeds the same records to the Cleaner and the oracle and
// requires the same verdict and forwarded record at every step, the same
// retained-connection count, and the same final stats.
func matchOracle(t testing.TB, records []Record, window int) {
	t.Helper()
	c, o := NewCleanerWindow(window), newOracleCleaner(window)
	for i, r := range records {
		got, gotOK := c.Observe(r)
		want, wantOK := o.Observe(r)
		if gotOK != wantOK || got != want {
			t.Fatalf("window %d, record %d %+v: forwarded %+v (%v), oracle %+v (%v)", window, i, r, got, gotOK, want, wantOK)
		}
		if c.Len() != len(o.max) {
			t.Fatalf("window %d, after record %d: %d connections retained, oracle %d", window, i, c.Len(), len(o.max))
		}
	}
	if c.Stats() != o.stats {
		t.Fatalf("window %d: stats %+v, oracle %+v", window, c.Stats(), o.stats)
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

func TestCleanerMatchesOracle(t *testing.T) {
	for _, order := range []string{"tower", "time", "shuffled"} {
		for _, window := range []int{0, 2, 1000} {
			records := feed(rand.New(rand.NewSource(int64(window)+7)), 12, 150, 40, order)
			t.Run(fmt.Sprintf("%s/window=%d", order, window), func(t *testing.T) { matchOracle(t, records, window) })
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
		// Window 4: a tower-hour fills, is evicted whole while another
		// tower streams, and then receives the same connections again,
		// which must be forwarded as new (by documented design).
		var records []Record
		b := validRecord().Start.UnixNano()
		for round := 0; round < 3; round++ {
			for u := 0; u < 6; u++ {
				records = append(records, at(b, u, 10))
			}
			for u := 0; u < 20; u++ {
				r := at(b+int64(round)*hour, 100+u, 10)
				r.TowerID++
				records = append(records, r, r)
			}
		}
		matchOracle(t, records, 4)
		c := NewCleanerWindow(4)
		for _, r := range records {
			c.Observe(r)
		}
		if got := c.ncells; got > 3 {
			t.Errorf("%d cells indexed for at most 9 retained connections: emptied cells were not removed", got)
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
			c := NewCleanerWindow(0)
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

// FuzzCleanerMatchesOracle decodes bytes into a window and a record
// sequence drawn from a few towers, users, byte counts and start times
// that cluster around bucket boundaries and the epoch, so copies of one
// connection recur at every distance, and requires the Cleaner to agree
// with the flat-map oracle record for record.
func FuzzCleanerMatchesOracle(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{2, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 9})
	f.Add([]byte{3, 5, 0, 0, 7, 5, 0, 0, 9, 5, 0, 0, 7, 6, 0, 0, 7})
	f.Add([]byte{1, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<12 {
			return
		}
		window := int(data[0] % 8)
		if window == 7 {
			window = 1000
		}
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
