package cluster

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/testutil"
)

// TestPreCancelledContext pins the cheapest invariant: an already-cancelled
// context aborts every ctx-aware entry point before any real work starts.
func TestPreCancelledContext(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	rng := rand.New(rand.NewSource(7))
	points := randomPoints(rng, 64, 8)
	x := matOf(t, points)
	dendro, err := hierarchical(points)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := HierarchicalWorkersCtx(ctx, points, AverageLinkage, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("HierarchicalWorkersCtx: err = %v, want context.Canceled", err)
	}
	if _, _, err := OptimalKCtx(ctx, points, dendro, 2, 8, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimalKCtx: err = %v, want context.Canceled", err)
	}
	preCancelledMat(t, ctx, x, dendro)
	preCancelledMat(t, ctx, linalg.Narrow(x), dendro)
}

func preCancelledMat[F linalg.Float](t *testing.T, ctx context.Context, x *linalg.Mat[F], dendro *Dendrogram) {
	t.Helper()
	if _, err := HierarchicalMatCtx(ctx, x, AverageLinkage, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("HierarchicalMatCtx[%T]: err = %v, want context.Canceled", x.Data, err)
	}
	if d, err := DistancesMatCtx(ctx, x, 4); !errors.Is(err, context.Canceled) || d != nil {
		t.Errorf("DistancesMatCtx[%T] = %v, %v; want nil, context.Canceled", x.Data, d, err)
	}
	if d, err := DistancesMatCtx(context.Background(), x, 4); err != nil {
		t.Errorf("DistancesMatCtx[%T]: %v", x.Data, err)
	} else if _, err := d.HierarchicalCtx(ctx, AverageLinkage); !errors.Is(err, context.Canceled) {
		t.Errorf("Distances.HierarchicalCtx[%T]: err = %v, want context.Canceled", x.Data, err)
	}
	if _, err := DBICurveMatCtx(ctx, x, dendro, 2, 8, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("DBICurveMatCtx[%T]: err = %v, want context.Canceled", x.Data, err)
	}
	if _, _, err := OptimalKMatCtx(ctx, x, dendro, 2, 8, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimalKMatCtx[%T]: err = %v, want context.Canceled", x.Data, err)
	}
}

// TestHierarchicalCancellationProperty cancels mid-flight at randomized
// points — most trials land inside the condensed distance kernel, the
// dominant O(N²·D) phase — and asserts the two-sided contract: the call either
// completes with a dendrogram bit-identical to the uncancelled baseline,
// or returns context.Canceled with no partial result, and in both cases
// the worker pool unwinds promptly without leaking goroutines.
func TestHierarchicalCancellationProperty(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	rng := rand.New(rand.NewSource(1409))
	points := randomPoints(rng, 400, 32)
	baseline, err := hierarchical(points)
	if err != nil {
		t.Fatal(err)
	}

	const trials = 10
	for trial := 0; trial < trials; trial++ {
		workers := []int{1, 2, 4}[trial%3]
		delay := time.Duration(rng.Intn(2000)) * time.Microsecond
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		start := time.Now()
		dendro, err := HierarchicalWorkersCtx(ctx, points, AverageLinkage, workers)
		elapsed := time.Since(start)
		cancel()
		if elapsed > 10*time.Second {
			t.Fatalf("trial %d: cancellation took %v to unwind", trial, elapsed)
		}
		switch {
		case err == nil:
			if !reflect.DeepEqual(dendro.Merges, baseline.Merges) {
				t.Fatalf("trial %d: completed run diverged from baseline", trial)
			}
		case errors.Is(err, context.Canceled):
			if dendro != nil {
				t.Fatalf("trial %d: partial dendrogram returned alongside cancellation", trial)
			}
		default:
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
	}
}
