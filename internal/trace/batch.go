package trace

// batch.go holds the batch plumbing every Source consumer shares: the
// pooled batch buffers, so the steady state recycles a fixed set of
// slices, and ForEachBatch, the one drain loop (readahead.go lets a
// second goroutine pull the source it drains).

import (
	"errors"
	"io"
	"sync"
)

// DefaultBatchSize is the record count of pooled batch buffers: large
// enough to amortise interface calls and channel handoffs down to noise,
// small enough (~250 KiB of records) to stay cache- and pool-friendly.
const DefaultBatchSize = 2048

// ReadAheadDepth is how many batches ReadAhead's producer may have pulled
// (or be pulling) that its consumer has not taken yet: the size of its
// buffer rotation. Two is the smallest value that buys the overlap. On the
// service's cold start (bench serve-mixed: 2.1 M records, 2 vCPU, prebuilt
// binaries alternated with the parent's) to_model_s fell from a median of
// 1.17 s with one goroutine to 0.94 s at two, and rotations of four,
// eight and sixteen read the same as two within the spread. The depth was
// chosen while decoding was the slower stage; since the Scanner decodes
// canonical rows in one fused pass, the producer is the side that waits
// (for a free buffer, 0.27–0.49 s per cold start against 0.04–0.16 s the
// consumer waits for a batch), and what keeps it waiting is the window
// guard's once-a-day baseline refresh, a ≈ 10 ms stall of the consumer
// that only a rotation of tens of batches (sixty-four, measured before
// the fused pass: ≈ 0.1–0.2 s less, 13 MB more) would ride out. A deeper
// queue also shifts the bench's ingest-lag reading: a batch is stamped
// when the feed hands it to the producer, so whatever it then waits in
// the queue counts as lag (see .claude/skills/verify/SKILL.md).
const ReadAheadDepth = 2

// SizeHinter is implemented by sources that can estimate how many
// records remain. The hint is approximate — collectors use it to
// preallocate, never to bound the stream.
type SizeHinter interface {
	SizeHint() int
}

// Batched returns src: every Source is batched. It is a shim pinned by
// bench/layers.go, to retire with the cluster adapters in the
// [benchmark] PR that re-points that file.
func Batched(src Source) Source { return src }

// batchPool recycles batch buffers across sources and consumers.
// Pointers to slices avoid the allocation a plain []Record interface
// conversion would cost on every Put.
var batchPool = sync.Pool{
	New: func() any {
		b := make([]Record, DefaultBatchSize)
		return &b
	},
}

// GetBatch returns a pooled batch buffer of DefaultBatchSize records.
// Return it with PutBatch when drained.
func GetBatch() *[]Record {
	return batchPool.Get().(*[]Record)
}

// PutBatch returns a buffer obtained from GetBatch to the pool.
func PutBatch(b *[]Record) {
	if b != nil && cap(*b) >= DefaultBatchSize {
		*b = (*b)[:cap(*b)]
		batchPool.Put(b)
	}
}

// ForEachBatch drains src through a pooled batch buffer, invoking fn for
// every non-empty batch. The batch slice is reused between calls: fn
// must not retain it. It stops at the first error from either side
// (io.EOF from the source is the normal end of stream and yields nil).
func ForEachBatch(src Source, fn func([]Record) error) error {
	bp := GetBatch()
	defer PutBatch(bp)
	buf := *bp
	for {
		n, err := src.NextBatch(buf)
		if n > 0 {
			if ferr := fn(buf[:n]); ferr != nil {
				return ferr
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}
