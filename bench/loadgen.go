package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// The driven-load mix: 80 % point lookups, 10 % /summary, 5 % the full
// listing, 5 % point lookups with a live anomaly re-score.
type endpoint int

const (
	epTower endpoint = iota
	epSummary
	epTowers
	epRescore
	numEndpoints
)

var endpointNames = [numEndpoints]string{"tower", "summary", "towers", "rescore"}

// request is one entry of the open-loop schedule: due is fixed before the
// run starts and does not depend on how the server responds.
type request struct {
	due      time.Duration // since the start of the driven phase
	endpoint endpoint
	tower    int // for the two point-lookup endpoints
}

func (q request) path() string {
	switch q.endpoint {
	case epTower:
		return fmt.Sprintf("/towers/%d", q.tower)
	case epRescore:
		return fmt.Sprintf("/towers/%d?threshold=3", q.tower)
	case epSummary:
		return "/summary"
	default:
		return "/towers"
	}
}

// buildSchedule spaces rate·slots requests evenly over slots one-second
// slots and draws each one's endpoint and tower from rng.
func buildSchedule(rng *rand.Rand, rate, slots int, towers []int) []request {
	sched := make([]request, rate*slots)
	gap := time.Second / time.Duration(rate)
	for i := range sched {
		q := request{due: time.Duration(i) * gap, tower: towers[rng.Intn(len(towers))]}
		switch p := rng.Float64(); {
		case p < 0.80:
			q.endpoint = epTower
		case p < 0.90:
			q.endpoint = epSummary
		case p < 0.95:
			q.endpoint = epTowers
		default:
			q.endpoint = epRescore
		}
		sched[i] = q
	}
	return sched
}

// outcome is what a doer reports for one request.
type outcome struct {
	status    int       // 0 on a transport error
	firstByte time.Time // zero when no response arrived
	err       error     // refusal, error status, transport failure or invalid body
}

// doer sends one request and validates the response. Each generator
// goroutine owns one doer, hence one connection.
type doer func(q request) outcome

// loadStats accumulates one generator goroutine's samples; the goroutines'
// stats are merged once they have all finished.
type loadStats struct {
	perSlot       []*histogram // latency from due time, by the slot the request was due in
	byEndpoint    [numEndpoints]histogram
	duringRemodel histogram
	idle          histogram
	late          histogram // sent − due, for requests the generator was free to send on time
	backlogged    int       // requests already overdue when the previous reply arrived
	all           histogram
	sent, failed  int
	codes         map[int]int
	failures      []string
	spans         []requestSpan
}

func newLoadStats(slots int) *loadStats {
	s := &loadStats{perSlot: make([]*histogram, slots), codes: map[int]int{}}
	for i := range s.perSlot {
		s.perSlot[i] = &histogram{}
	}
	return s
}

func (s *loadStats) merge(o *loadStats) {
	for i, h := range o.perSlot {
		s.perSlot[i].merge(h)
	}
	for i := range o.byEndpoint {
		s.byEndpoint[i].merge(&o.byEndpoint[i])
	}
	s.duringRemodel.merge(&o.duringRemodel)
	s.idle.merge(&o.idle)
	s.late.merge(&o.late)
	s.all.merge(&o.all)
	s.sent += o.sent
	s.backlogged += o.backlogged
	s.failed += o.failed
	for c, n := range o.codes {
		s.codes[c] += n
	}
	s.failures = append(s.failures, o.failures...)
	s.spans = append(s.spans, o.spans...)
}

// driveOpenLoop issues every request of the schedule: generator g owns
// requests g, g+n, g+2n, … and one connection. A generator sleeps until a
// request is due, or sends it at once when it is already overdue because
// the previous reply was slow; either way the latency is counted from the
// due time, so a stall charges every request that came due during it.
// Lateness is the generator's own: how long after its due time a request
// left when nothing but the generator's timer held it back. remodeling tags
// requests that came due while a modeling cycle was in flight.
func driveOpenLoop(sched []request, slots int, t0 time.Time, doers []doer, remodeling *atomic.Bool, keepSpans bool) *loadStats {
	parts := make([]*loadStats, len(doers))
	var wg sync.WaitGroup
	for g, do := range doers {
		part := newLoadStats(slots)
		parts[g] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(sched); i += len(doers) {
				q := sched[i]
				due := t0.Add(q.due)
				wait := time.Until(due)
				if wait > 0 {
					time.Sleep(wait)
				}
				busy := remodeling != nil && remodeling.Load()
				sent := time.Now()
				res := do(q)
				done := time.Now()

				latency := done.Sub(due).Seconds()
				part.sent++
				part.codes[res.status]++
				if wait > 0 {
					part.late.add(sent.Sub(due).Seconds())
				} else {
					part.backlogged++
				}
				part.all.add(latency)
				part.perSlot[min(int(q.due/time.Second), slots-1)].add(latency)
				part.byEndpoint[q.endpoint].add(latency)
				if busy {
					part.duringRemodel.add(latency)
				} else {
					part.idle.add(latency)
				}
				if res.err != nil {
					part.failed++
					if len(part.failures) < 5 {
						part.failures = append(part.failures, fmt.Sprintf("%s: %v", q.path(), res.err))
					}
				}
				if keepSpans {
					sp := requestSpan{
						Due:             q.due.Seconds(),
						Sent:            sent.Sub(t0).Seconds(),
						Done:            done.Sub(t0).Seconds(),
						Endpoint:        endpointNames[q.endpoint],
						Status:          res.status,
						RemodelInFlight: busy,
					}
					if !res.firstByte.IsZero() {
						sp.FirstByte = res.firstByte.Sub(t0).Seconds()
					}
					part.spans = append(part.spans, sp)
				}
			}
		}()
	}
	wg.Wait()
	total := newLoadStats(slots)
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// driveClosedLoop measures capacity: every client sends its next request
// as soon as the previous reply arrived, for the given duration. It
// returns completed requests per second and the failures seen.
func driveClosedLoop(duration time.Duration, towers []int, doers []doer) (rps float64, completed, failed int, failures []string) {
	type tally struct {
		done, failed int
		failures     []string
	}
	tallies := make([]tally, len(doers))
	start := time.Now()
	deadline := start.Add(duration)
	var wg sync.WaitGroup
	for g, do := range doers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[g]
			for i := g; time.Now().Before(deadline); i += len(doers) {
				q := request{endpoint: epTower, tower: towers[i%len(towers)]}
				if res := do(q); res.err != nil {
					t.failed++
					if len(t.failures) < 5 {
						t.failures = append(t.failures, fmt.Sprintf("%s: %v", q.path(), res.err))
					}
				}
				t.done++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, t := range tallies {
		completed += t.done
		failed += t.failed
		failures = append(failures, t.failures...)
	}
	return float64(completed) / elapsed, completed, failed, failures
}

// reply is the part of the service's JSON bodies the checks read: the
// echoed tower id of a point lookup, and the model generation, which
// /summary nests one level deeper than the other endpoints.
type reply struct {
	Tower *int `json:"tower"`
	Model *struct {
		Seq  uint64 `json:"seq"`
		Info *struct {
			Seq uint64 `json:"seq"`
		} `json:"info"`
	} `json:"model"`
	Towers []json.RawMessage `json:"towers"`
}

// newHTTPDoer returns a doer bound to one keep-alive connection to base.
// A request fails unless it returns 200 with a body that decodes, echoes
// the tower asked for, and carries a model generation no older than the
// last one seen on this connection. firstByte is recorded only when
// traced.
func newHTTPDoer(base string, traced bool) (doer, func()) {
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	var lastSeq uint64
	do := func(q request) (out outcome) {
		req, err := http.NewRequest(http.MethodGet, base+q.path(), nil)
		if err != nil {
			out.err = err
			return out
		}
		if traced {
			req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
				GotFirstResponseByte: func() { out.firstByte = time.Now() },
			}))
		}
		resp, err := client.Do(req)
		if err != nil {
			out.err = err
			return out
		}
		defer resp.Body.Close()
		out.status = resp.StatusCode
		body, err := io.ReadAll(resp.Body)
		switch {
		case err != nil:
			out.err = err
			return out
		case resp.StatusCode != http.StatusOK:
			out.err = fmt.Errorf("status %d", resp.StatusCode)
			return out
		}
		var rep reply
		if err := json.Unmarshal(body, &rep); err != nil {
			out.err = fmt.Errorf("invalid body: %w", err)
			return out
		}
		if rep.Model == nil {
			out.err = fmt.Errorf("no model in the body")
			return out
		}
		seq := rep.Model.Seq
		if rep.Model.Info != nil {
			seq = rep.Model.Info.Seq
		}
		switch {
		case seq < lastSeq:
			out.err = fmt.Errorf("model #%d after #%d on one connection", seq, lastSeq)
		case q.endpoint == epTowers && len(rep.Towers) == 0:
			out.err = fmt.Errorf("empty tower listing")
		case (q.endpoint == epTower || q.endpoint == epRescore) && (rep.Tower == nil || *rep.Tower != q.tower):
			out.err = fmt.Errorf("asked for tower %d, body echoes %v", q.tower, rep.Tower)
		}
		lastSeq = max(lastSeq, seq)
		return out
	}
	return do, transport.CloseIdleConnections
}
