// health.go is the service's explicit health state machine. Health is a
// pure function of loop liveness and model age, so /readyz computes it
// fresh on every probe (a wedged or dead remodel loop flips readiness
// immediately); a background ticker re-evaluates it every healthInterval
// anyway to log transitions and keep the /metrics gauge current.
//
// The three states:
//
//	healthy   all configured loops live, model fresh
//	degraded  still serving a usable model, but something upstream is
//	          wrong: the ingest loop died or its feed broke/ended, a loop
//	          is in restart backoff, or the last modeling cycle failed.
//	          Load balancers keep routing (readyz 200) — the data is the
//	          last known good model and responses say so.
//	stale     the model can no longer be trusted fresh: none published
//	          yet, the remodel loop is dead, or the model is older than
//	          StaleAfter. /readyz answers 503 + Retry-After so load
//	          balancers drain, while the query endpoints keep serving
//	          the last-good model for clients that still ask.
package serve

import (
	"context"
	"fmt"
	"time"
)

// Health is the service's coarse health state.
type Health int32

// Health states, ordered by severity.
const (
	Healthy Health = iota
	Degraded
	Stale
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Stale:
		return "stale"
	default:
		return fmt.Sprintf("health(%d)", int32(h))
	}
}

// staleAfter resolves Config.StaleAfter: default three remodel intervals
// — one slow cycle is jitter, three missed cycles is an outage.
func (s *Server) staleAfter() time.Duration {
	if s.cfg.StaleAfter > 0 {
		return s.cfg.StaleAfter
	}
	return 3 * s.cfg.RemodelInterval
}

// healthInterval is the health re-evaluation (and transition-logging)
// cadence: a quarter of the remodel interval, clamped to [1s, 15s].
func (s *Server) healthInterval() time.Duration {
	iv := s.cfg.RemodelInterval / 4
	if iv < time.Second {
		iv = time.Second
	}
	if iv > 15*time.Second {
		iv = 15 * time.Second
	}
	return iv
}

// healthNow evaluates the health state machine and the human-readable
// reason for it.
func (s *Server) healthNow() (Health, string) {
	m := s.model()
	if m == nil {
		if s.remodelLoop.state.Load() == loopDead {
			return Stale, fmt.Sprintf("remodel loop dead before a model was published: %v", s.remodelLoop.LastErr())
		}
		return Stale, "no model published yet"
	}
	if s.remodelLoop.state.Load() == loopDead {
		return Stale, fmt.Sprintf("serving model #%d but the remodel loop is dead: %v", m.Seq, s.remodelLoop.LastErr())
	}
	if age := time.Since(m.ModeledAt); age > s.staleAfter() {
		return Stale, fmt.Sprintf("model #%d is %v old (stale after %v)", m.Seq, age.Round(time.Second), s.staleAfter())
	}
	if s.cfg.Source != nil {
		switch s.ingestLoop.state.Load() {
		case loopDead:
			return Degraded, fmt.Sprintf("ingest loop dead, window frozen: %v", s.ingestLoop.LastErr())
		case loopBackoff:
			return Degraded, fmt.Sprintf("ingest loop restarting: %v", s.ingestLoop.LastErr())
		case loopDone:
			if !s.isClosed() {
				return Degraded, "ingest feed exhausted; serving a frozen window"
			}
		}
	}
	if s.remodelLoop.state.Load() == loopBackoff {
		return Degraded, fmt.Sprintf("remodel loop restarting: %v", s.remodelLoop.LastErr())
	}
	if n := s.met.modelConsecFails.Load(); n > 0 {
		return Degraded, fmt.Sprintf("last %d modeling cycle(s) failed; serving model #%d", n, m.Seq)
	}
	if n := s.met.modelConsecRejects.Load(); n > 0 {
		return Degraded, fmt.Sprintf("last %d candidate model(s) rejected by admission; serving model #%d", n, m.Seq)
	}
	return Healthy, "ok"
}

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// healthLoop re-evaluates health every healthInterval, logging every
// transition and keeping the /metrics gauge (healthState) current.
func (s *Server) healthLoop(ctx context.Context) {
	defer s.wg.Done()
	ticker := time.NewTicker(s.healthInterval())
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			h, reason := s.healthNow()
			if prev := Health(s.met.healthState.Swap(int32(h))); prev != h {
				s.met.healthTransitions.Add(1)
				s.logf("serve: health %s -> %s: %s", prev, h, reason)
			}
		}
	}
}
