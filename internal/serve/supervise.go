package serve

// supervise.go keeps the service's background loops alive: each loop
// (ingest, re-model, snapshot) runs under a supervisor that converts
// panics into errors (panicsafe), restarts the loop with bounded
// exponential backoff and gives up only when the restart budget is
// exhausted, flipping the loop to "dead" where the health state machine
// can see it. A wedged dependency therefore degrades the service
// instead of silently killing a goroutine.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/panicsafe"
)

// Loop lifecycle states, observable through loopStatus.
const (
	loopIdle    int32 = iota // never started (e.g. no Source configured)
	loopRunning              // the loop body is executing
	loopBackoff              // crashed; waiting out the restart backoff
	loopDead                 // restart budget exhausted; will not run again
	loopDone                 // returned cleanly (feed exhausted, shutdown)
)

// loopStateName maps a loop state to its /metrics label.
func loopStateName(s int32) string {
	switch s {
	case loopRunning:
		return "running"
	case loopBackoff:
		return "backoff"
	case loopDead:
		return "dead"
	case loopDone:
		return "done"
	default:
		return "idle"
	}
}

// loopStatus is the supervised state of one background loop.
type loopStatus struct {
	name     string
	state    atomic.Int32
	restarts atomic.Uint64

	mu      sync.Mutex
	lastErr error
}

// loops lists the supervised loops for /metrics.
func (s *Server) loops() [3]*loopStatus {
	return [...]*loopStatus{&s.ingestLoop, &s.remodelLoop, &s.snapshotLoop}
}

func (l *loopStatus) setErr(err error) {
	l.mu.Lock()
	l.lastErr = err
	l.mu.Unlock()
}

// LastErr returns the most recent crash error, nil if none.
func (l *loopStatus) LastErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastErr
}

// Supervisor timing. The budget is per unstable stretch: a loop that
// stays up for supervisorStableAfter earns its full budget back.
const (
	restartBudget         = 5
	restartBackoff        = 500 * time.Millisecond
	restartMaxBackoff     = 30 * time.Second
	supervisorStableAfter = time.Minute
)

// restartPolicy is the supervisor's timing as New sets it from the
// constants above: budget restarts, then backoff doubling up to
// maxBackoff between them.
type restartPolicy struct {
	budget              int
	backoff, maxBackoff time.Duration
}

// supervise runs fn until it returns cleanly or the context ends,
// restarting it after errors and panics with exponential backoff. onErr
// (optional) observes every failure before the restart decision. The
// caller must have added the goroutine to s.wg.
func (s *Server) supervise(ctx context.Context, ls *loopStatus, fn func(context.Context) error, onErr func(error)) {
	defer s.wg.Done()
	policy := s.restart
	backoff := policy.backoff
	attempts := 0
	for {
		ls.state.Store(loopRunning)
		started := time.Now()
		err := panicsafe.Call(func() error { return fn(ctx) })
		if ctx.Err() != nil || (err == nil) {
			// Clean return (feed exhausted) or shutdown: not a crash.
			ls.state.Store(loopDone)
			return
		}
		ls.setErr(err)
		if onErr != nil {
			onErr(err)
		}
		if time.Since(started) >= supervisorStableAfter {
			// A long healthy run earns the budget back: only tight crash
			// loops should exhaust it.
			attempts = 0
			backoff = policy.backoff
		}
		if attempts++; attempts > policy.budget {
			ls.state.Store(loopDead)
			s.logf("serve: %s loop dead after %d restarts: %v", ls.name, attempts-1, err)
			return
		}
		var pe *panicsafe.Error
		if errors.As(err, &pe) {
			s.logf("serve: %s loop panicked, restart %d/%d in %v: %v", ls.name, attempts, policy.budget, backoff, pe.Value)
		} else {
			s.logf("serve: %s loop failed, restart %d/%d in %v: %v", ls.name, attempts, policy.budget, backoff, err)
		}
		ls.state.Store(loopBackoff)
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			ls.state.Store(loopDone)
			return
		}
		backoff = min(2*backoff, policy.maxBackoff)
		ls.restarts.Add(1)
	}
}
