package faultinject

import (
	"errors"
	"fmt"

	"repro/internal/trace"
)

// ErrInjected is the default terminal error of a faulty Source.
var ErrInjected = errors.New("faultinject: injected source failure")

// SourceProfile configures a faulty Source. The zero value injects
// nothing. Record positions are 1-based counts of records delivered.
type SourceProfile struct {
	// ErrAfter makes NextBatch return Err (default ErrInjected)
	// after this many records have been delivered. Zero disables.
	ErrAfter int
	// Err overrides the injected error.
	Err error
	// Transient makes the ErrAfter fault fire once: the call that reaches
	// it returns Err and the calls after it resume the stream at the next
	// record — the model of a live feed that drops its connection and
	// reconnects, the kind of source a supervisor may pull again.
	Transient bool
	// PanicAfter makes NextBatch panic after this many records have
	// been delivered — the model of a bug in a source implementation,
	// which the pipeline's worker pools must convert into an error
	// rather than crash on. Zero disables.
	PanicAfter int
}

// Source wraps a trace.Source with record-level fault injection. After
// the configured fault fires the source is dead: subsequent calls return
// the same error (unless the profile is Transient).
type Source struct {
	src       trace.Source
	p         SourceProfile
	delivered int
	err       error
	fired     bool // a Transient fault has already fired
}

// NewSource wraps src with the given fault profile.
func NewSource(src trace.Source, p SourceProfile) *Source {
	if p.Err == nil {
		p.Err = ErrInjected
	}
	return &Source{src: src, p: p}
}

// Delivered returns the number of records handed out so far.
func (s *Source) Delivered() int { return s.delivered }

// trip fires the configured fault if the stream has reached it. It
// returns the remaining record budget before the next fault boundary.
func (s *Source) trip() (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	budget := -1
	if s.p.PanicAfter > 0 {
		if s.delivered >= s.p.PanicAfter {
			panic(fmt.Sprintf("faultinject: injected panic after %d records", s.delivered))
		}
		budget = s.p.PanicAfter - s.delivered
	}
	if s.p.ErrAfter > 0 && !s.fired {
		if s.delivered >= s.p.ErrAfter {
			if s.p.Transient {
				s.fired = true
				return 0, s.p.Err
			}
			s.err = s.p.Err
			return 0, s.err
		}
		if b := s.p.ErrAfter - s.delivered; budget < 0 || b < budget {
			budget = b
		}
	}
	return budget, nil
}

// NextBatch implements trace.Source. A batch never crosses a fault
// boundary: the records before the boundary are delivered first, and the
// fault fires on the following call — mirroring how a real source hands
// out what it has before failing.
func (s *Source) NextBatch(dst []trace.Record) (int, error) {
	budget, err := s.trip()
	if err != nil {
		return 0, err
	}
	if budget > 0 && budget < len(dst) {
		dst = dst[:budget]
	}
	n, err := s.src.NextBatch(dst)
	s.delivered += n
	return n, err
}

// Stats forwards to the wrapped source.
func (s *Source) Stats() trace.SkipStats {
	if st, ok := s.src.(interface{ Stats() trace.SkipStats }); ok {
		return st.Stats()
	}
	return trace.SkipStats{}
}
