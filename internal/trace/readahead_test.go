package trace

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/panicsafe"
	"repro/internal/testutil"
)

// pull is one scripted NextBatch of a scriptedSource: hand out n records
// and return err, or panic.
type pull struct {
	n     int
	err   error
	panic any
}

// scriptedSource plays a fixed sequence of pulls over a record slice and
// counts the calls it gets. Past the script it repeats the last error.
type scriptedSource struct {
	records []Record
	script  []pull
	pos     int // next record
	calls   int
	err     error
}

func (s *scriptedSource) NextBatch(dst []Record) (int, error) {
	if s.err != nil || s.calls == len(s.script) {
		return 0, s.err
	}
	p := s.script[s.calls]
	s.calls++
	if p.panic != nil {
		panic(p.panic)
	}
	n := copy(dst[:min(p.n, len(dst))], s.records[s.pos:])
	s.pos += n
	s.err = p.err
	return n, p.err
}

// TestReadAheadEquivalence: whatever the wrapped source's pulls look like
// and whatever sizes the consumer pulls in, the records that come out are
// the records that went in, in order, and the terminal error follows the
// last record that preceded it and then repeats.
func TestReadAheadEquivalence(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	records := randomRecords(rand.New(rand.NewSource(23)), 3000)
	broken := errors.New("read: connection reset")
	cases := []struct {
		name    string
		script  []pull
		isPanic bool
	}{
		{name: "short and empty pulls", script: []pull{
			{n: 0}, {n: 1}, {n: 0}, {n: 0}, {n: 3}, {n: DefaultBatchSize}, {n: 0}, {n: 17}, {n: 0}, {n: 0, err: io.EOF}}},
		{name: "last records arrive with EOF", script: []pull{
			{n: DefaultBatchSize}, {n: 5}, {n: 40, err: io.EOF}}},
		{name: "error mid-stream", script: []pull{
			{n: 9}, {n: DefaultBatchSize}, {n: 0}, {n: 0, err: broken}, {n: 100}}},
		{name: "error with its last records", script: []pull{
			{n: 300}, {n: 12, err: broken}, {n: 100}}},
		{name: "panic mid-stream", isPanic: true, script: []pull{
			{n: 4}, {n: DefaultBatchSize}, {panic: "decoder bug"}, {n: 100}}},
		{name: "panic on the first pull", isPanic: true, script: []pull{{panic: fmt.Errorf("nil map")}}},
	}
	for _, tc := range cases {
		// What the script hands out before its first failure.
		want, wantErr := 0, error(nil)
		for _, p := range tc.script {
			if p.panic != nil {
				break
			}
			want += p.n
			if wantErr = p.err; wantErr != nil {
				break
			}
		}
		for _, size := range []int{1, 7, DefaultBatchSize} {
			t.Run(fmt.Sprintf("%s/dst=%d", tc.name, size), func(t *testing.T) {
				inner := &scriptedSource{records: records, script: tc.script}
				src := ReadAhead(inner, nil)
				defer src.Close()
				got, err := pullAll(t, src, size, size == 7)
				if len(got) != want {
					t.Fatalf("%d records out, %d in", len(got), want)
				}
				for i := range got {
					if got[i] != records[i] {
						t.Fatalf("record %d is %+v, want %+v", i, got[i], records[i])
					}
				}
				var pe *panicsafe.Error
				switch {
				case tc.isPanic && !errors.As(err, &pe):
					t.Fatalf("terminal error %v, want *panicsafe.Error", err)
				case tc.isPanic && len(pe.Stack) == 0:
					t.Fatal("recovered panic carries no stack")
				case !tc.isPanic && err != wantErr:
					t.Fatalf("terminal error %v, want %v", err, wantErr)
				}
				for i := 0; i < 3; i++ {
					if n, again := src.NextBatch(make([]Record, size)); n != 0 || again != err {
						t.Fatalf("pull %d after the terminal error = (%d, %v), want (0, %v)", i, n, again, err)
					}
				}
				src.Close()
				// The producer stopped at the failure: the script's tail was never pulled.
				if stop := len(tc.script) - 1; tc.script[stop].n == 100 && inner.calls != stop {
					t.Fatalf("%d pulls of the wrapped source, want %d: the producer pulled past the failure", inner.calls, stop)
				}
			})
		}
	}
}

// blockingSource hands out full batches of one record forever; while gate
// is non-nil every pull first waits for a value on it (or for it to close).
type blockingSource struct {
	gate    chan struct{}
	entered chan struct{} // receives one value per gated pull, while it has room
}

func (s *blockingSource) NextBatch(dst []Record) (int, error) {
	if s.gate != nil {
		select {
		case s.entered <- struct{}{}:
		default:
		}
		<-s.gate
	}
	for i := range dst {
		dst[i] = validRecord()
	}
	return len(dst), nil
}

// TestReadAheadCloseJoinsProducer: Close returns only after the producer
// has, wherever the producer is — parked on a full queue, or inside a pull
// its owner then unblocks — and is idempotent; a closed source fails.
func TestReadAheadCloseJoinsProducer(t *testing.T) {
	t.Run("full queue", func(t *testing.T) {
		testutil.CheckNoGoroutineLeak(t)
		inner := &blockingSource{gate: make(chan struct{}), entered: make(chan struct{}, ReadAheadDepth+1)}
		src := ReadAhead(inner, nil)
		for i := 0; i < ReadAheadDepth; i++ {
			<-inner.entered
			inner.gate <- struct{}{}
		}
		// Every buffer is full and nobody pulls: the producer can only be
		// waiting for a free one.
		select {
		case <-inner.entered:
			t.Fatalf("the producer started pull %d with %d buffers", ReadAheadDepth+1, ReadAheadDepth)
		case <-time.After(20 * time.Millisecond):
		}
		src.Close()
		src.Close()
		if n, err := src.NextBatch(make([]Record, 4)); n != 0 || err == nil {
			t.Fatalf("pull on a closed source = (%d, %v), want (0, error)", n, err)
		}
	})
	t.Run("parked in the source", func(t *testing.T) {
		testutil.CheckNoGoroutineLeak(t)
		inner := &blockingSource{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
		src := ReadAhead(inner, nil)
		<-inner.entered // the producer is inside NextBatch
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			src.Close()
		}()
		select {
		case <-closed:
			t.Fatal("Close returned while the producer was still inside the wrapped source")
		case <-time.After(20 * time.Millisecond):
		}
		close(inner.gate) // the owner unblocks its source
		<-closed
		select {
		case <-inner.entered:
			t.Fatal("the producer pulled again after Close")
		default:
		}
	})
}

// TestReadAheadSteadyStateAllocatesNothing: the buffers are taken once in
// ReadAhead; handing batches over allocates nothing on either goroutine.
func TestReadAheadSteadyStateAllocatesNothing(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	src := ReadAhead(&blockingSource{}, nil)
	defer src.Close()
	dst := make([]Record, DefaultBatchSize)
	pullSome := func() {
		for i := 0; i < 64; i++ {
			if n, err := src.NextBatch(dst); n != len(dst) || err != nil {
				t.Fatalf("NextBatch = (%d, %v)", n, err)
			}
		}
	}
	pullSome() // warm: timers, the scheduler's own state
	if allocs := testing.AllocsPerRun(10, pullSome); allocs > 0 {
		t.Fatalf("%.1f allocations per 64 batches, want none", allocs)
	}
}

// TestReadAheadWaitsNameTheSlowSide: a consumer faster than its source
// accumulates Consumer wait, a source faster than its consumer Producer
// wait.
func TestReadAheadWaitsNameTheSlowSide(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	dst := make([]Record, DefaultBatchSize)

	var waits ReadAheadWaits
	slow := &blockingSource{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	src := ReadAhead(slow, &waits)
	go func() {
		<-slow.entered
		time.Sleep(5 * time.Millisecond)
		close(slow.gate)
	}()
	if n, err := src.NextBatch(dst); n != len(dst) || err != nil {
		t.Fatalf("NextBatch = (%d, %v)", n, err)
	}
	src.Close()
	if c := time.Duration(waits.Consumer.Load()); c < 5*time.Millisecond {
		t.Errorf("consumer wait %v behind a source that took 5ms", c)
	}

	waits = ReadAheadWaits{}
	src = ReadAhead(&blockingSource{}, &waits)
	defer src.Close()
	deadline := time.Now().Add(10 * time.Second)
	for waits.Producer.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no producer wait recorded ahead of a consumer that sleeps between pulls")
		}
		time.Sleep(time.Millisecond)
		if n, err := src.NextBatch(dst); n != len(dst) || err != nil {
			t.Fatalf("NextBatch = (%d, %v)", n, err)
		}
	}
}
