package window

// guards.go is the feed-quality layer of the sliding window: defenses
// against data that is syntactically valid but semantically poisoned.
//
// Two guards exist. The clock-skew guard drops records whose timestamp
// runs further ahead of the window's data-driven clock than a configured
// bound — without it a single corrupt far-future timestamp wedges the
// clock forward and mass-evicts every tower's history. The quarantine
// guard watches each tower's completed slots against a robust seasonal
// baseline (per slot-of-day median ± 1.4826·MAD over the days in the
// ring) and excludes towers whose traffic jumps beyond a z-score bound
// from the Dataset() handoff until they stabilize, so a spiked or zeroed
// tower cannot steer the next model.
//
// Quarantine is judgement over history already admitted to the ring:
// poisoned values still land in slots (and age out as the window slides),
// but a quarantined tower is invisible to modeling. The baseline uses
// medians precisely so that a few poisoned days cannot drag it along —
// after the poison stops, the tower's clean traffic scores calm against
// the still-clean baseline and the tower is released.

import (
	"math"
	"time"

	"repro/internal/linalg"
)

// Guards configure the window's feed-quality defenses. Guards are
// construction-time configuration, not window state: like locations they
// are not persisted by WriteSnapshot and must be re-applied with
// SetGuards after a restore (quarantine verdicts themselves are
// persisted). The zero value disables both guards.
type Guards struct {
	// MaxFutureSkew bounds how far ahead of the window's data-driven
	// clock (the newest slot any record has touched) a record timestamp
	// may run. Records beyond the bound are dropped and counted in
	// Summary.DroppedFuture. The first record is exempt — it establishes
	// the clock. Zero disables the guard.
	MaxFutureSkew time.Duration
	// Quarantine configures per-tower outlier quarantine.
	Quarantine QuarantineOptions
}

// QuarantineOptions configure the per-tower quarantine judge. The zero
// value disables quarantine.
type QuarantineOptions struct {
	// ZThreshold is the robust z-score — |v − median| / (1.4826·MAD),
	// both taken per slot-of-day across the days in the ring — beyond
	// which a completed slot counts as an outlier. <= 0 disables
	// quarantine.
	ZThreshold float64
	// MinSlots is the number of completed slots a tower must have been
	// observed for before any judgement (default two days' worth): young
	// towers have no baseline worth trusting.
	MinSlots int
	// TriggerSlots consecutive outlier slots quarantine the tower
	// (default 3).
	TriggerSlots int
	// ReleaseSlots consecutive calm slots release it (default one hour's
	// worth, minimum 3). Slots with no usable baseline (e.g. a dead-quiet
	// night hour) count toward neither run.
	ReleaseSlots int
}

const (
	// minBaselineDays is the fewest same-slot-of-day samples a baseline
	// median is trusted from; below it the slot is unjudgeable.
	minBaselineDays = 3
	// relScaleFloor floors the robust scale at this fraction of the slot
	// median (or of the tower's busiest slot median, for quiet slots), so
	// a perfectly regular tower does not get an infinite z-score on its
	// first wobble.
	relScaleFloor = 0.1
)

// SetGuards applies feed-quality guards, normalising defaults against the
// window's slot grid. Calling it with a zero Guards clears all quarantine
// verdicts; calling it with quarantine enabled forces every tower's
// baseline to be recomputed on next judgement.
func (w *Window) SetGuards(g Guards) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if g.MaxFutureSkew > 0 {
		w.skewSlots = int64(g.MaxFutureSkew / w.slotDur)
		if w.skewSlots < 1 {
			w.skewSlots = 1
		}
	} else {
		w.skewSlots = 0
	}
	q := &g.Quarantine
	if q.ZThreshold > 0 {
		if q.MinSlots <= 0 {
			q.MinSlots = 2 * w.spd
		}
		if q.TriggerSlots <= 0 {
			q.TriggerSlots = 3
		}
		if q.ReleaseSlots <= 0 {
			q.ReleaseSlots = max(3, w.spd/24)
		}
	}
	w.guards = g
	w.quarCount = 0
	for _, ts := range w.towers {
		ts.statsAt = -1
		if q.ZThreshold <= 0 {
			ts.quarantined = false
			ts.outlierRun, ts.calmRun = 0, 0
		} else if ts.quarantined {
			w.quarCount++
		}
	}
}

// judgeLocked scores a tower's completed slots — everything newer than
// its last judgement up to (but excluding) the slot currently
// accumulating — against its robust baseline and flips quarantine state.
// It is called on every add, so in steady state it judges at most one
// slot per tower per slot duration; the loop is bounded by the ring
// length for towers that went silent. Callers hold w.mu and have advanced
// the ring.
func (w *Window) judgeLocked(ts *towerState) {
	q := w.guards.Quarantine
	if q.ZThreshold <= 0 {
		return
	}
	hi := w.latest - 1
	if hi <= ts.judged {
		return
	}
	lo := ts.judged + 1
	if m := hi - int64(w.ringSlots) + 1; lo < m {
		lo = m
	}
	for s := lo; s <= hi; s++ {
		if s-ts.born < int64(q.MinSlots) {
			continue
		}
		if ts.statsAt < 0 || s-ts.statsAt >= int64(w.spd) {
			w.refreshBaselineLocked(ts)
			ts.statsAt = s
		}
		scale := ts.baseScale[s%int64(w.spd)]
		if scale <= 0 {
			continue // no usable baseline for this slot-of-day
		}
		med := ts.baseMed[s%int64(w.spd)]
		v := ts.ring[s%int64(w.ringSlots)]
		outlier := math.Abs(v-med)/scale > q.ZThreshold
		if ts.quarantined {
			if outlier {
				ts.calmRun = 0
				continue
			}
			ts.calmRun++
			if ts.calmRun >= q.ReleaseSlots {
				ts.quarantined = false
				ts.calmRun, ts.outlierRun = 0, 0
				w.quarCount--
				w.quarReleases++
			}
			continue
		}
		if !outlier {
			ts.outlierRun = 0
			continue
		}
		ts.outlierRun++
		if ts.outlierRun >= q.TriggerSlots {
			ts.quarantined = true
			ts.outlierRun, ts.calmRun = 0, 0
			w.quarCount++
			w.quarEvents++
		}
	}
	ts.judged = hi
}

// refreshBaselineLocked recomputes a tower's per-slot-of-day robust
// baseline (median and 1.4826·MAD) from the completed slots currently in
// the ring. Medians make the baseline resistant to a minority of
// poisoned days, which is what lets a tower be released once its feed
// turns clean again. Slots of day with fewer than minBaselineDays
// samples, and fully silent slots of a tower with no traffic anywhere,
// get a zero scale: unjudgeable.
func (w *Window) refreshBaselineLocked(ts *towerState) {
	if ts.baseMed == nil {
		ts.baseMed = make([]float64, w.spd)
		ts.baseScale = make([]float64, w.spd)
	}
	lo := w.latest - int64(w.ringSlots) + 1
	if ts.born > lo {
		lo = ts.born
	}
	hi := w.latest - 1
	spd := int64(w.spd)
	samples := w.scratch[:0]
	maxMed := 0.0
	for j := int64(0); j < spd; j++ {
		samples = samples[:0]
		first := lo + ((j-lo)%spd+spd)%spd
		for s := first; s <= hi; s += spd {
			samples = append(samples, ts.ring[s%int64(w.ringSlots)])
		}
		if len(samples) < minBaselineDays {
			ts.baseMed[j], ts.baseScale[j] = 0, -1 // too few samples: unjudgeable
			continue
		}
		med := linalg.QuantileInPlace(samples, 0.5)
		for k, v := range samples {
			samples[k] = math.Abs(v - med)
		}
		scale := 1.4826 * linalg.QuantileInPlace(samples, 0.5)
		if floor := relScaleFloor * med; scale < floor {
			scale = floor
		}
		ts.baseMed[j], ts.baseScale[j] = med, scale
		if med > maxMed {
			maxMed = med
		}
	}
	// A dead-quiet slot of day on an otherwise busy tower still deserves
	// judgement (a flood at 4am is an anomaly, not background): give it
	// the scale of the tower's busiest hour rather than none at all.
	if floor := relScaleFloor * maxMed; floor > 0 {
		for j := range ts.baseScale {
			if ts.baseScale[j] == 0 {
				ts.baseScale[j] = floor
			}
		}
	}
	w.scratch = samples[:0]
}
