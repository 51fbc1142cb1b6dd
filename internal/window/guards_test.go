package window

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/trace"
)

// guardWindow builds a 60-minute-slot, 7-day window with the given
// guards applied.
func guardWindow(t *testing.T, g Guards) *Window {
	t.Helper()
	w, err := New(Options{Start: t0, SlotMinutes: 60, Days: 7})
	if err != nil {
		t.Fatal(err)
	}
	w.SetGuards(g)
	return w
}

// dailyValue is a deterministic diurnal traffic curve: identical every
// day, never zero, so the robust baseline is exact and judgement is
// fully predictable.
func dailyValue(slot int) int64 {
	return int64(800 + 400*math.Sin(2*math.Pi*float64(slot%24)/24))
}

// feedClean feeds every tower in ids one record per hourly slot over
// [fromSlot, toSlot), scaled per tower by the scale func (nil = clean).
func feedClean(w *Window, ids []int, fromSlot, toSlot int, scale func(id, slot int) int64) {
	for slot := fromSlot; slot < toSlot; slot++ {
		for _, id := range ids {
			v := dailyValue(slot)
			if scale != nil {
				v = scale(id, slot)
			}
			w.AddBatch([]trace.Record{rec(id, slot*60, v)})
		}
	}
}

func TestClockSkewGuardDropsFutureRecords(t *testing.T) {
	w := guardWindow(t, Guards{MaxFutureSkew: 24 * time.Hour})
	feedClean(w, []int{1}, 0, 8*24, nil)
	before := w.Summary()

	// A corrupt timestamp 300 days ahead must be dropped, not admitted.
	w.AddBatch([]trace.Record{rec(1, 300*1440, 999)})
	s := w.Summary()
	if s.DroppedFuture != 1 {
		t.Fatalf("DroppedFuture = %d, want 1", s.DroppedFuture)
	}
	if s.Dropped != before.Dropped+1 {
		t.Fatalf("Dropped = %d, want %d", s.Dropped, before.Dropped+1)
	}
	if !s.LatestSlotEnd.Equal(before.LatestSlotEnd) || s.CompleteDays != before.CompleteDays {
		t.Fatalf("window clock moved on a guarded record: %v/%d -> %v/%d",
			before.LatestSlotEnd, before.CompleteDays, s.LatestSlotEnd, s.CompleteDays)
	}
	st, ok := w.TowerStats(1)
	if !ok || st.Mean == 0 {
		t.Fatalf("tower history lost after guarded record: %+v ok=%v", st, ok)
	}

	// Feed keeps flowing normally afterwards.
	w.AddBatch([]trace.Record{rec(1, 8*24*60, dailyValue(0))})
	if s := w.Summary(); s.Ingested != before.Ingested+1 {
		t.Fatalf("Ingested = %d after clean record, want %d", s.Ingested, before.Ingested+1)
	}

	// Control arm: without the guard the same record wedges the clock
	// forward and mass-evicts the tower's history — the failure mode the
	// guard exists for.
	uw := guardWindow(t, Guards{})
	feedClean(uw, []int{1}, 0, 8*24, nil)
	uw.AddBatch([]trace.Record{rec(1, 300*1440, 999)})
	if s := uw.Summary(); s.CompleteDays < 200 {
		t.Fatalf("unguarded control: CompleteDays = %d, expected the clock to wedge forward", s.CompleteDays)
	}
	if st, _ := uw.TowerStats(1); st.Mean*float64(st.Slots) > 1000 {
		t.Fatalf("unguarded control kept history: mean %v", st.Mean)
	}
}

func quarantineOpts() QuarantineOptions {
	return QuarantineOptions{ZThreshold: 6, MinSlots: 48, TriggerSlots: 3, ReleaseSlots: 4}
}

func TestQuarantineSpikeTriggersAndReleases(t *testing.T) {
	w := guardWindow(t, Guards{Quarantine: quarantineOpts()})
	ids := []int{1, 2}
	feedClean(w, ids, 0, 7*24, nil)

	if s := w.Summary(); s.Quarantined != 0 || s.QuarantineEvents != 0 {
		t.Fatalf("clean feed quarantined towers: %+v", s)
	}

	// Tower 1 spikes 100× for six slots; tower 2 stays clean.
	spike := func(id, slot int) int64 {
		v := dailyValue(slot)
		if id == 1 && slot < 7*24+6 {
			v *= 100
		}
		return v
	}
	feedClean(w, ids, 7*24, 7*24+7, spike)

	st, ok := w.TowerStats(1)
	if !ok || !st.Quarantined {
		t.Fatalf("tower 1 not quarantined after spike: %+v", st)
	}
	if st2, _ := w.TowerStats(2); st2.Quarantined {
		t.Fatal("clean tower 2 quarantined")
	}
	s := w.Summary()
	if s.Quarantined != 1 || s.QuarantineEvents != 1 {
		t.Fatalf("summary after spike: %+v", s)
	}
	ds, err := w.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTowers() != 1 || ds.TowerIDs[0] != 2 {
		t.Fatalf("dataset towers = %v, want just tower 2", ds.TowerIDs)
	}

	// Clean traffic resumes: the median baseline was not dragged by the
	// spike, so after ReleaseSlots calm completed slots the tower is
	// released and rejoins the handoff.
	feedClean(w, ids, 7*24+7, 7*24+14, nil)
	if st, _ := w.TowerStats(1); st.Quarantined {
		t.Fatalf("tower 1 still quarantined after calm slots: %+v", st)
	}
	s = w.Summary()
	if s.Quarantined != 0 || s.QuarantineReleases != 1 {
		t.Fatalf("summary after release: %+v", s)
	}
	ds, err = w.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTowers() != 2 {
		t.Fatalf("dataset towers = %v after release, want both", ds.TowerIDs)
	}
}

func TestQuarantineCatchesSilentTowerAtHandoff(t *testing.T) {
	w := guardWindow(t, Guards{Quarantine: quarantineOpts()})
	feedClean(w, []int{1, 2}, 0, 8*24, nil)
	// Tower 1 goes completely silent — no records at all — while tower 2
	// keeps the window clock moving for two more days.
	feedClean(w, []int{2}, 8*24, 10*24, nil)

	// The silent tower still holds week-old traffic in its ring, so only
	// the handoff-time judgement can catch it.
	ds, err := w.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTowers() != 1 || ds.TowerIDs[0] != 2 {
		t.Fatalf("dataset towers = %v, want just tower 2", ds.TowerIDs)
	}
	if s := w.Summary(); s.Quarantined != 1 {
		t.Fatalf("summary: %+v, want 1 quarantined", s)
	}
}

func TestQuarantineStatePersistsAcrossSnapshot(t *testing.T) {
	w := guardWindow(t, Guards{Quarantine: quarantineOpts()})
	ids := []int{1, 2}
	feedClean(w, ids, 0, 7*24, nil)
	spike := func(id, slot int) int64 {
		v := dailyValue(slot)
		if id == 1 {
			v *= 100
		}
		return v
	}
	feedClean(w, ids, 7*24, 7*24+7, spike)
	if st, _ := w.TowerStats(1); !st.Quarantined {
		t.Fatal("precondition: tower 1 not quarantined")
	}

	var buf bytes.Buffer
	if err := w.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if s1, s2 := w.Summary(), restored.Summary(); s1 != s2 {
		t.Fatalf("summary mismatch after restore:\n  %+v\n  %+v", s1, s2)
	}
	var buf2 bytes.Buffer
	if err := restored.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-snapshot of the restored window is not byte-identical")
	}

	// Guards are construction-time config: re-applied after restore, the
	// persisted verdict still excludes the tower.
	restored.SetGuards(Guards{Quarantine: quarantineOpts()})
	ds, err := restored.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTowers() != 1 || ds.TowerIDs[0] != 2 {
		t.Fatalf("restored dataset towers = %v, want just tower 2", ds.TowerIDs)
	}

	// Disabling quarantine clears every verdict.
	restored.SetGuards(Guards{})
	if s := restored.Summary(); s.Quarantined != 0 {
		t.Fatalf("quarantine gauge not cleared on disable: %+v", s)
	}
	ds, err = restored.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTowers() != 2 {
		t.Fatalf("dataset towers = %v with guards disabled, want both", ds.TowerIDs)
	}
}

// medianInPlace is the sort-based median the quarantine baseline used
// before it moved to linalg.QuantileInPlace: it sorts vals and returns
// their median (mean of the middle pair for even lengths).
func medianInPlace(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// At q = 0.5 the selection-based quantile interpolates lo·½ + hi·½, which
// equals the sort-based (lo+hi)/2 bit for bit, so the baseline — and every
// quarantine verdict drawn from it — is the same. Lengths 3–14 are what a
// 7- or 14-day ring gives a slot of day.
func TestBaselineMedianMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for n := 3; n <= 14; n++ {
		for trial := 0; trial < 200; trial++ {
			samples := make([]float64, n)
			switch trial % 4 {
			case 0: // byte counts, as the ring holds them
				for i := range samples {
					samples[i] = math.Round(rng.Float64() * 1e7)
				}
			case 1: // heavy ties
				for i := range samples {
					samples[i] = float64(rng.Intn(3)) * 1234.5
				}
			case 2: // absolute deviations with awkward mantissas
				for i := range samples {
					samples[i] = math.Abs(rng.NormFloat64()) / 3
				}
			case 3: // a dead-quiet slot of day
			}
			want := medianInPlace(slices.Clone(samples))
			if got := linalg.QuantileInPlace(samples, 0.5); got != want {
				t.Fatalf("n=%d trial %d: QuantileInPlace = %v, sort-based median %v", n, trial, got, want)
			}
		}
	}
}
