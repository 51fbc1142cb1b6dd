package trace

import (
	"math"
	"testing"
	"time"
)

// A time-major feed cleaned batch by batch, with the horizon trailing the
// newest start by three days after every batch as a sliding window's
// does: the retained state never exceeds the connections of the hours
// from a day before the horizon on, and every adjacent duplicate is still
// caught.
func TestCleanerHorizonBoundsState(t *testing.T) {
	const towers, perHour, days = 4, 12, 20
	const lag = 3 * 24 * time.Hour
	base := validRecord().Start.Truncate(time.Hour)
	var records []Record
	dups := 0
	for h := 0; h < days*24; h++ {
		for tower := 0; tower < towers; tower++ {
			for u := 0; u < perHour; u++ {
				r := validRecord()
				r.TowerID, r.UserID = tower, u
				r.Start = base.Add(time.Duration(h)*time.Hour + time.Duration(u)*time.Minute)
				r.End = r.Start.Add(time.Minute)
				records = append(records, r)
				if u%3 == 0 {
					records = append(records, r)
					dups++
				}
			}
		}
	}
	src := CleanSource(SliceSource(records))
	src.EvictBefore(time.Time{}) // no horizon yet: a no-op
	var newest time.Time
	dst := make([]Record, 256)
	for {
		n, err := src.NextBatch(dst)
		for _, r := range dst[:n] {
			if r.Start.After(newest) {
				newest = r.Start
			}
		}
		if n > 0 {
			horizon := newest.Add(-lag)
			src.EvictBefore(horizon)
			// Everything retained started at or after the hour of the last
			// sweep's horizon, which is less than a day behind this one.
			from := horizon.Add(-24 * time.Hour).Truncate(time.Hour)
			hours := int(newest.Truncate(time.Hour).Sub(from)/time.Hour) + 1
			if got, limit := src.cleaner.Len(), hours*towers*perHour; got > limit {
				t.Fatalf("at %v: %d connections retained, want at most the %d of the %d hours since %v", newest, got, limit, hours, from)
			}
		}
		if err != nil {
			break
		}
	}
	want := CleanStats{Input: len(records), Duplicates: dups, Output: len(records) - dups}
	if got := src.Stats(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if all := days * 24 * towers * perHour; src.cleaner.Len() > all/4 {
		t.Errorf("%d of %d connections still retained at the end", src.cleaner.Len(), all)
	}
}

// A free table slot is the zero conn, so no stored connection may look
// like one: not the all-zero record (user 0, tower 0, no time at the
// epoch, 0 bytes), nor 0 or math.MaxInt64 bytes. Each keeps being
// recognised, with its duplicate dropped and a larger copy amended by its
// delta, before and after its table grows and after a sweep of the cells
// around it.
func TestCleanerFreeSlotMarker(t *testing.T) {
	epoch := time.Unix(0, 0).UTC()
	conn := func(user int, bytes int64) Record {
		return Record{UserID: user, Start: epoch, End: epoch, Bytes: bytes, Tech: TechLTE}
	}
	zero := conn(0, 0)
	edges := []struct {
		first, larger Record // larger is a conflicting copy with more bytes
	}{
		{zero, conn(0, 5)},
		{conn(1, 0), conn(1, math.MaxInt64)},
		{conn(2, math.MaxInt64-1), conn(2, math.MaxInt64)},
	}
	c := NewCleaner()
	observe := func(stage string, r Record, wantOK bool, wantBytes int64) {
		t.Helper()
		got, ok := c.Observe(r)
		if ok != wantOK || (ok && got.Bytes != wantBytes) {
			t.Fatalf("%s: %+v forwarded %v with %d bytes, want %v with %d", stage, r, ok, got.Bytes, wantOK, wantBytes)
		}
	}
	// recognised requires every edge connection to be known at its larger
	// count: copies of either size are dropped.
	recognised := func(stage string) {
		t.Helper()
		for _, e := range edges {
			observe(stage, e.first, false, 0)
			observe(stage, e.larger, false, 0)
		}
	}
	for _, e := range edges {
		observe("first copy", e.first, true, e.first.Bytes)
		observe("duplicate", e.first, false, 0)
		observe("larger copy", e.larger, true, e.larger.Bytes-e.first.Bytes)
	}
	recognised("before growth")

	// Grow the epoch cell's table well past its first size.
	for u := 10; u < 60; u++ {
		observe("filler", conn(u, 1), true, 1)
	}
	recognised("after growth")

	// Drop a cell two days before the epoch: the index is rebuilt around
	// the epoch cell, which must come through intact.
	old := conn(0, 7)
	old.Start, old.End = epoch.Add(-48*time.Hour), epoch.Add(-48*time.Hour)
	observe("old cell", old, true, 7)
	c.evictBefore(0)
	if c.Len() != 53 || c.ncells != 1 {
		t.Fatalf("%d connections in %d cells after the sweep, want 53 in 1", c.Len(), c.ncells)
	}
	recognised("after a sweep")

	// A day later the epoch cell goes too; its connections are new again.
	c.evictBefore(int64(24 * time.Hour))
	if c.Len() != 0 || c.ncells != 0 {
		t.Fatalf("%d connections in %d cells after the last sweep, want none", c.Len(), c.ncells)
	}
	observe("after eviction", zero, true, 0)
	observe("after eviction", zero, false, 0)
}
