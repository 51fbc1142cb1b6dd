package serve

// history.go is the bounded ring of accepted model generations behind
// the live pointer: every generation the admission gate accepts is
// pushed here with its acceptance stats, and rollback — manual via
// POST /models/rollback, or automatic after AutoRollback consecutive
// rejections — republishes an older generation by dropping the newer
// ones. The ring is bounded (Config.ModelHistory) and holds read models, so
// memory stays O(K × read model size) no matter how long the service runs.
//
// Rollback is honest about time: a republished generation keeps its
// original Seq and ModeledAt, so its age (and therefore staleness) keeps
// growing — an operator who rolls back is explicitly choosing an old
// model, and /readyz must not pretend it is fresh. The publication
// sequence itself is monotone: the next accepted candidate after a
// rollback gets a strictly higher Seq than any generation ever
// published, so clients can totally order what they saw.

import (
	"errors"
	"fmt"
	"time"
)

// generation is one accepted model's read model plus its acceptance
// record. It holds no traffic matrix (see readmodel.go).
type generation struct {
	rm         *readModel
	stats      AdmissionStats
	acceptedAt time.Time
}

// errNoOlderGeneration means rollback was asked for but the history
// holds nothing older than the live generation.
var errNoOlderGeneration = errors.New("serve: no older accepted generation to roll back to")

// modelHistory is the bounded generation ring, oldest first. Its own
// mutex only guards the slice; the publication ordering between gate,
// push and rollback is serialised by Server.admMu.
type modelHistory struct {
	cap  int
	gens []*generation
}

func newModelHistory(capacity int) *modelHistory {
	return &modelHistory{cap: capacity}
}

// push appends an accepted generation, evicting the oldest beyond cap.
func (h *modelHistory) push(g *generation) {
	h.gens = append(h.gens, g)
	if len(h.gens) > h.cap {
		copy(h.gens, h.gens[len(h.gens)-h.cap:])
		h.gens = h.gens[:h.cap]
	}
}

// head returns the newest generation, nil when empty.
func (h *modelHistory) head() *generation {
	if len(h.gens) == 0 {
		return nil
	}
	return h.gens[len(h.gens)-1]
}

// list returns the generations newest first (a copy).
func (h *modelHistory) list() []*generation {
	out := make([]*generation, len(h.gens))
	for i, g := range h.gens {
		out[len(h.gens)-1-i] = g
	}
	return out
}

// rollback drops the newest generations and returns the new head. With
// toSeq == 0 it steps back exactly one generation; otherwise it unwinds
// to the generation with that Seq. It fails without touching the ring
// when there is nothing older, or when toSeq is unknown or not older
// than the head.
func (h *modelHistory) rollback(toSeq uint64) (*generation, error) {
	if len(h.gens) < 2 {
		return nil, errNoOlderGeneration
	}
	target := len(h.gens) - 2
	if toSeq != 0 {
		target = -1
		for i, g := range h.gens[:len(h.gens)-1] {
			if g.rm.Seq == toSeq {
				target = i
				break
			}
		}
		if target < 0 {
			return nil, fmt.Errorf("serve: generation #%d is not in the history (or is already live)", toSeq)
		}
	}
	h.gens = h.gens[:target+1]
	return h.gens[target], nil
}
