package faultinject

import (
	"io"
	"testing"
	"time"

	"repro/internal/trace"
)

var poisonT0 = time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC)

// poisonRecords builds a chronological stream: one record per tower per
// 10-minute slot.
func poisonRecords(towers, slots int) []trace.Record {
	recs := make([]trace.Record, 0, towers*slots)
	for s := 0; s < slots; s++ {
		start := poisonT0.Add(time.Duration(s) * 10 * time.Minute)
		for id := 0; id < towers; id++ {
			recs = append(recs, trace.Record{
				UserID:  100 + id,
				Start:   start,
				End:     start.Add(time.Minute),
				TowerID: id,
				Bytes:   int64(1000 + 10*id),
				Tech:    trace.Tech3G,
			})
		}
	}
	return recs
}

// drain reads a source to EOF one record at a time.
func drain(t *testing.T, src trace.Source) []trace.Record {
	t.Helper()
	var out []trace.Record
	var one [1]trace.Record
	for {
		n, err := src.NextBatch(one[:])
		out = append(out, one[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoisonedSourceZeroProfilePassesThrough(t *testing.T) {
	recs := poisonRecords(5, 20)
	got := drain(t, NewPoisonedSource(trace.SliceSource(recs), PoisonProfile{}))
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d mutated by zero profile: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestPoisonedSourceDeterministicAcrossReadShapes(t *testing.T) {
	recs := poisonRecords(10, 50)
	p := PoisonProfile{Seed: 42, TowerFraction: 0.4, SpikeFactor: 100, DuplicateFlood: 2, LateBy: 5 * time.Minute}

	serial := drain(t, NewPoisonedSource(trace.SliceSource(recs), p))

	batched := NewPoisonedSource(trace.SliceSource(recs), p)
	var viaBatch []trace.Record
	buf := make([]trace.Record, 7)
	for {
		n, err := batched.NextBatch(buf)
		viaBatch = append(viaBatch, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	if len(serial) != len(viaBatch) {
		t.Fatalf("serial delivered %d records, batched %d", len(serial), len(viaBatch))
	}
	// Flood duplicates interleave differently between read shapes, so
	// compare as multisets.
	count := func(rs []trace.Record) map[trace.Record]int {
		m := make(map[trace.Record]int, len(rs))
		for _, r := range rs {
			m[r]++
		}
		return m
	}
	cs, cb := count(serial), count(viaBatch)
	for r, n := range cs {
		if cb[r] != n {
			t.Fatalf("record %+v: %d serial vs %d batched", r, n, cb[r])
		}
	}

	again := drain(t, NewPoisonedSource(trace.SliceSource(recs), p))
	for i := range serial {
		if serial[i] != again[i] {
			t.Fatalf("same seed diverged at record %d", i)
		}
	}
}

func TestPoisonedSourceSpikesSelectedTowersInWindow(t *testing.T) {
	recs := poisonRecords(20, 30)
	from := poisonT0.Add(100 * time.Minute)
	to := poisonT0.Add(200 * time.Minute)
	src := NewPoisonedSource(trace.SliceSource(recs), PoisonProfile{
		Seed: 7, TowerFraction: 0.5, SpikeFactor: 50, ActiveFrom: from, ActiveTo: to,
	})
	got := drain(t, src)
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d (no flood configured)", len(got), len(recs))
	}
	spikedTowers := map[int]bool{}
	for i, r := range got {
		orig := recs[i]
		inWindow := !orig.Start.Before(from) && orig.Start.Before(to)
		switch {
		case r.Bytes == orig.Bytes:
		case r.Bytes == orig.Bytes*50 && inWindow:
			spikedTowers[r.TowerID] = true
		default:
			t.Fatalf("record %d: bytes %d from %d (inWindow=%v)", i, r.Bytes, orig.Bytes, inWindow)
		}
	}
	if n := len(spikedTowers); n < 4 || n > 16 {
		t.Fatalf("spiked %d of 20 towers, want roughly half", n)
	}
	// Selection is per tower: a spiked tower is spiked for every in-window
	// record.
	for i, r := range got {
		orig := recs[i]
		if spikedTowers[orig.TowerID] && !orig.Start.Before(from) && orig.Start.Before(to) && r.Bytes != orig.Bytes*50 {
			t.Fatalf("tower %d spiked inconsistently at record %d", orig.TowerID, i)
		}
	}
	if src.Poisoned() == 0 {
		t.Fatal("Poisoned() = 0 after spiking")
	}
}

func TestPoisonedSourceZeroesAndFloods(t *testing.T) {
	recs := poisonRecords(10, 20)
	src := NewPoisonedSource(trace.SliceSource(recs), PoisonProfile{
		Seed: 3, TowerFraction: 1, ZeroTowers: true, DuplicateFlood: 3, LateBy: 30 * time.Minute,
	})
	got := drain(t, src)
	if want := len(recs) * 4; len(got) != want {
		t.Fatalf("got %d records, want %d (3 duplicates each)", len(got), want)
	}
	var dups int
	for _, r := range got {
		if r.Bytes != 0 {
			t.Fatalf("record not zeroed: %+v", r)
		}
		if r.UserID >= 1000 { // perturbed flood copy
			dups++
		}
	}
	if dups != len(recs)*3 {
		t.Fatalf("found %d flood duplicates, want %d", dups, len(recs)*3)
	}
	if src.Injected() != uint64(len(recs)*3) {
		t.Fatalf("Injected() = %d, want %d", src.Injected(), len(recs)*3)
	}
}

func TestPoisonedSourceFutureSkew(t *testing.T) {
	recs := poisonRecords(4, 10)
	skew := 400 * 24 * time.Hour
	src := NewPoisonedSource(trace.SliceSource(recs), PoisonProfile{
		Seed: 9, TowerFraction: 1, FutureSkew: skew, FutureEvery: 5,
	})
	got := drain(t, src)
	var futured int
	for i, r := range got {
		if r.Start.After(recs[i].Start) {
			if d := r.Start.Sub(recs[i].Start); d != skew {
				t.Fatalf("record %d skewed by %v, want %v", i, d, skew)
			}
			futured++
		}
	}
	if futured != len(recs)/5 {
		t.Fatalf("futured %d records, want %d", futured, len(recs)/5)
	}
	if src.Futured() != uint64(futured) {
		t.Fatalf("Futured() = %d, want %d", src.Futured(), futured)
	}
}
