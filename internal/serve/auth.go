package serve

// auth.go hardens the query plane: optional bearer-token auth and a
// per-client token-bucket rate limiter. Both are opt-in (zero config
// disables them) and both exempt the probe endpoints — /healthz, /readyz
// and /metrics must stay reachable to load balancers and scrapers even
// when a client is hammering the API or holds no credentials.
//
// The limiter is a classic lazily-refilled token bucket per client IP:
// no background goroutine, state touched only when the client shows up,
// and the table never holds more than maxRateClients buckets, so an
// address-rotating scanner cannot grow it without limit.

import (
	"crypto/subtle"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxRateClients bounds the limiter table; a new client arriving at the
// bound triggers a sweep (see sweepLocked).
const maxRateClients = 4096

// tokenBucket is one client's limiter state.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter implements per-client token buckets: rate tokens/second,
// burst capacity, lazy refill.
type rateLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

func newRateLimiter(rate float64, burst int) *rateLimiter {
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*tokenBucket),
	}
}

// allow spends one token for client, reporting whether it was available
// and, when it was not, how long until one is.
func (l *rateLimiter) allow(client string, now time.Time) (bool, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[client]
	if b == nil {
		if len(l.buckets) >= maxRateClients {
			l.sweepLocked(now)
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	return false, wait
}

// sweepLocked drops buckets idle long enough to be full again — their
// state is indistinguishable from a fresh bucket. When that frees no
// room, it evicts the least recently seen bucket instead, so the table
// stays within maxRateClients.
func (l *rateLimiter) sweepLocked(now time.Time) {
	idle := time.Duration(l.burst / l.rate * float64(time.Second))
	var lru *tokenBucket
	var lruClient string
	for c, b := range l.buckets {
		switch {
		case now.Sub(b.last) > idle:
			delete(l.buckets, c)
		case lru == nil || b.last.Before(lru.last):
			lru, lruClient = b, c
		}
	}
	if len(l.buckets) >= maxRateClients {
		delete(l.buckets, lruClient)
	}
}

// clientKey extracts the rate-limit key of a request: the client IP
// without the ephemeral port, falling back to the whole RemoteAddr.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// authed wraps a handler with bearer-token auth when Config.APIToken is
// set. The comparison is constant-time; a missing or wrong token gets
// 401 with a WWW-Authenticate challenge.
func (s *Server) authed(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.APIToken == "" {
		return h
	}
	want := []byte(s.cfg.APIToken)
	return func(w http.ResponseWriter, r *http.Request) {
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), want) != 1 {
			s.met.reqUnauthorized.Add(1)
			w.Header().Set("WWW-Authenticate", `Bearer realm="repro"`)
			httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		h(w, r)
	}
}

// rateLimited wraps a handler with the per-client token bucket when
// Config.RateLimit is set. Refused requests get 429 + Retry-After.
func (s *Server) rateLimited(h http.HandlerFunc) http.HandlerFunc {
	if s.rl == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if ok, wait := s.rl.allow(clientKey(r), time.Now()); !ok {
			s.met.reqRateLimited.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(wait.Seconds()))))
			httpError(w, http.StatusTooManyRequests, "rate limit exceeded (%g req/s per client)", s.rl.rate)
			return
		}
		h(w, r)
	}
}
