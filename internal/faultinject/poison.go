package faultinject

// poison.go injects semantically bad data rather than I/O faults: records
// that parse cleanly but carry poisoned payloads — value spikes, zeroed
// towers, duplicated/late floods, far-future timestamps. This is the feed
// the window-layer quarantine and the serve-layer admission gate are
// built to survive, and the chaos soak drives them with it.
//
// Like the fault Source, a PoisonedSource is fully deterministic: which
// towers are poisoned is a pure hash of (Seed, TowerID), and whether the
// poison is active is a pure function of each record's own timestamp, so
// the same wrapped stream produces the same poisoned records regardless of
// read batching (flood duplicates trail the batch that queued them, so
// only their position in the stream depends on the pull size).

import (
	"math/rand"
	"time"

	"repro/internal/trace"
)

// PoisonProfile configures a PoisonedSource. The zero value poisons
// nothing.
type PoisonProfile struct {
	// Seed keys the deterministic tower selection and the duplicate
	// perturbations.
	Seed int64
	// ActiveFrom/ActiveTo bound the poison by record timestamp: only
	// records with Start in [ActiveFrom, ActiveTo) are touched. Zero
	// values leave the corresponding bound open.
	ActiveFrom, ActiveTo time.Time
	// TowerFraction selects roughly this fraction of tower IDs (by seeded
	// hash) as poisoned. Zero selects none; 1 selects all.
	TowerFraction float64
	// SpikeFactor multiplies Bytes on records from poisoned towers
	// (values > 1 model a corrupt counter or a replayed burst). Zero
	// disables.
	SpikeFactor float64
	// ZeroTowers zeroes Bytes on records from poisoned towers — the shape
	// of a tower whose counters flatlined while its feed kept emitting.
	// It wins over SpikeFactor.
	ZeroTowers bool
	// DuplicateFlood emits this many extra near-copies of every record
	// from a poisoned tower. Copies perturb UserID (so dedup cleaning
	// does not collapse them) and are shifted LateBy into the past.
	DuplicateFlood int
	// LateBy is the timestamp shift applied to flood duplicates.
	LateBy time.Duration
	// FutureSkew, when positive, corrupts the timestamp of records from
	// poisoned towers to this far beyond the record's own time — the
	// clock-skew poison the window's MaxFutureSkew guard must absorb.
	// Applied to every FutureEvery-th poisoned record (default: never).
	FutureSkew  time.Duration
	FutureEvery int
}

// PoisonedSource wraps a trace.Source, mutating records per the profile.
// Not safe for concurrent use, matching the sources it wraps.
type PoisonedSource struct {
	src trace.Source
	p   PoisonProfile
	rng *rand.Rand

	// pending holds flood duplicates awaiting delivery.
	pending []trace.Record

	poisoned uint64 // records mutated (spiked, zeroed or skewed)
	injected uint64 // flood duplicates emitted
	futured  uint64 // timestamps skewed to the future
	seen     uint64 // records read from the wrapped source
}

// NewPoisonedSource wraps src with the given poison profile.
func NewPoisonedSource(src trace.Source, p PoisonProfile) *PoisonedSource {
	return &PoisonedSource{
		src: src,
		p:   p,
		rng: rand.New(rand.NewSource(p.Seed)),
	}
}

// Poisoned returns the number of records mutated in place.
func (s *PoisonedSource) Poisoned() uint64 { return s.poisoned }

// Injected returns the number of flood duplicates emitted.
func (s *PoisonedSource) Injected() uint64 { return s.injected }

// Futured returns the number of records whose timestamps were skewed.
func (s *PoisonedSource) Futured() uint64 { return s.futured }

// splitmix64 is the avalanche mix of the splitmix64 generator — enough
// bits of diffusion to make per-tower selection look uniform.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// towerPoisoned reports whether a tower is in the selected fraction: a
// pure function of (Seed, id), independent of read order.
func (s *PoisonedSource) towerPoisoned(id int) bool {
	if s.p.TowerFraction <= 0 {
		return false
	}
	if s.p.TowerFraction >= 1 {
		return true
	}
	h := splitmix64(uint64(id) ^ uint64(s.p.Seed))
	return float64(h>>11)/(1<<53) < s.p.TowerFraction
}

// active reports whether the poison window covers ts.
func (s *PoisonedSource) active(ts time.Time) bool {
	if !s.p.ActiveFrom.IsZero() && ts.Before(s.p.ActiveFrom) {
		return false
	}
	if !s.p.ActiveTo.IsZero() && !ts.Before(s.p.ActiveTo) {
		return false
	}
	return true
}

// poison mutates rec per the profile and queues any flood duplicates. It
// returns the (possibly mutated) record.
func (s *PoisonedSource) poison(rec trace.Record) trace.Record {
	s.seen++
	if !s.active(rec.Start) || !s.towerPoisoned(rec.TowerID) {
		return rec
	}
	mutated := false
	switch {
	case s.p.ZeroTowers:
		rec.Bytes = 0
		mutated = true
	case s.p.SpikeFactor > 0:
		rec.Bytes = int64(float64(rec.Bytes) * s.p.SpikeFactor)
		mutated = true
	}
	if s.p.FutureSkew > 0 && s.p.FutureEvery > 0 && s.seen%uint64(s.p.FutureEvery) == 0 {
		rec.Start = rec.Start.Add(s.p.FutureSkew)
		rec.End = rec.Start.Add(time.Minute)
		s.futured++
		mutated = true
	}
	if mutated {
		s.poisoned++
	}
	for i := 0; i < s.p.DuplicateFlood; i++ {
		dup := rec
		// Vary the user so the cleaner's dedup window cannot collapse the
		// flood, and push it into the past: a late replayed burst.
		dup.UserID = dup.UserID + (1+s.rng.Intn(1<<20))*1000003
		if s.p.LateBy > 0 {
			dup.Start = dup.Start.Add(-s.p.LateBy)
			dup.End = dup.Start.Add(time.Minute)
		}
		s.pending = append(s.pending, dup)
		s.injected++
	}
	return rec
}

// NextBatch implements trace.Source. Flood duplicates queued by a
// previous batch are drained first.
func (s *PoisonedSource) NextBatch(dst []trace.Record) (int, error) {
	if len(s.pending) > 0 {
		n := copy(dst, s.pending)
		s.pending = s.pending[n:]
		return n, nil
	}
	n, err := s.src.NextBatch(dst)
	for i := 0; i < n; i++ {
		dst[i] = s.poison(dst[i])
	}
	return n, err
}

// Stats forwards to the wrapped source.
func (s *PoisonedSource) Stats() trace.SkipStats {
	if st, ok := s.src.(interface{ Stats() trace.SkipStats }); ok {
		return st.Stats()
	}
	return trace.SkipStats{}
}
