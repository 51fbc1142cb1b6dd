package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/testutil"
)

// testWorkerCounts sweeps the serial path, fixed small counts, GOMAXPROCS
// and the "all cores" default.
func testWorkerCounts() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0), 0}
}

// randomPoints draws n points with continuous coordinates, so pairwise
// distances are distinct with probability 1 and the NN-chain and naive
// agglomerations must produce the same dendrogram.
func randomPoints(rng *rand.Rand, n, dim int) []linalg.Vector {
	points := make([]linalg.Vector, n)
	for i := range points {
		p := make(linalg.Vector, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 3
		}
		points[i] = p
	}
	return points
}

// Property: the condensed NN-chain engine agrees with the naive O(N³)
// global-minimum agglomeration oracle — same merge
// structure, same sizes, same distances (up to FP noise), and identical
// partitions at every cut.
func TestHierarchicalMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{2, 3, 5, 13, 31, 60} {
		points := randomPoints(rng, n, 4)
		want, err := hierarchicalNaive(points)
		if err != nil {
			t.Fatalf("n=%d oracle: %v", n, err)
		}
		x := matOf(t, points)
		got, err := HierarchicalMatCtx(context.Background(), x, AverageLinkage, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sameDendrogram(t, got, want, float64Tol, min(n, 8))
		got32, err := HierarchicalMatCtx(context.Background(), linalg.Narrow(x), AverageLinkage, 0)
		if err != nil {
			t.Fatalf("n=%d float32: %v", n, err)
		}
		sameDendrogram(t, got32, want, float32Tol, min(n, 8))
	}
}

// sameDendrogram asserts got makes the agglomeration decisions of want:
// the same merge pairs and sizes in the same order, merge distances within
// relTol, and identical partitions at every cut k ≤ maxK.
func sameDendrogram(t *testing.T, got, want *Dendrogram, relTol float64, maxK int) {
	t.Helper()
	if got.N != want.N || len(got.Merges) != len(want.Merges) {
		t.Fatalf("dendrogram of %d points (%d merges), want %d (%d merges)",
			got.N, len(got.Merges), want.N, len(want.Merges))
	}
	for i := range got.Merges {
		g, w := got.Merges[i], want.Merges[i]
		// The pair within one merge is unordered: the chain can reach it
		// from either side.
		ga, gb := min(g.A, g.B), max(g.A, g.B)
		wa, wb := min(w.A, w.B), max(w.A, w.B)
		if ga != wa || gb != wb || g.Size != w.Size {
			t.Fatalf("merge %d: got %+v, want %+v", i, g, w)
		}
		if diff := math.Abs(g.Distance - w.Distance); diff > relTol*(1+w.Distance) {
			t.Fatalf("merge %d: distance %g, want %g", i, g.Distance, w.Distance)
		}
	}
	for k := 1; k <= maxK; k++ {
		ga, err := got.CutK(k)
		if err != nil {
			t.Fatal(err)
		}
		wa, err := want.CutK(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ga.Labels, wa.Labels) {
			t.Fatalf("k=%d: labels %v, want %v", k, ga.Labels, wa.Labels)
		}
	}
}

// Property: the dendrogram is bit-identical for any worker count — the
// distance matrix entries are each computed by exactly one goroutine and
// the agglomeration is sequential.
func TestHierarchicalWorkersBitIdentical(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	rng := rand.New(rand.NewSource(43))
	x := matOf(t, randomPoints(rng, 120, 6))
	t.Run("float64", func(t *testing.T) { hierarchicalWorkersBitIdentical(t, x) })
	t.Run("float32", func(t *testing.T) { hierarchicalWorkersBitIdentical(t, linalg.Narrow(x)) })
}

func hierarchicalWorkersBitIdentical[F linalg.Float](t *testing.T, x *linalg.Mat[F]) {
	base, err := HierarchicalMatCtx(context.Background(), x, AverageLinkage, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range testWorkerCounts() {
		d, err := HierarchicalMatCtx(context.Background(), x, AverageLinkage, workers)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(d, base) {
			t.Fatalf("workers %d: dendrogram differs from serial run", workers)
		}
	}
}

// Regression for the latent deadlock in distanceMatrix: with ragged input
// every worker used to exit early on the SquaredDistance error, stranding
// the producer on the unbuffered rows channel forever. The oracle and the
// slice adapter in front of the production kernel both validate dimensions
// before any worker starts, so they must return the dimension error
// promptly (the timeout is the deadlock detector).
func TestDistanceMatrixRaggedNoDeadlock(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	// Enough rows that the old producer outlived the workers' early exit.
	points := make([]linalg.Vector, 256)
	for i := range points {
		points[i] = linalg.Vector{1, 2, 3}
	}
	points[1] = linalg.Vector{1} // ragged

	type result struct {
		name string
		err  error
	}
	done := make(chan result, 2)
	go func() {
		_, err := distanceMatrix(points)
		done <- result{"distanceMatrix", err}
	}()
	go func() {
		_, err := HierarchicalWorkersCtx(context.Background(), points, AverageLinkage, 0)
		done <- result{"HierarchicalWorkersCtx", err}
	}()
	for i := 0; i < 2; i++ {
		select {
		case r := <-done:
			if !errors.Is(r.err, ErrShapeRagged) {
				t.Errorf("%s: error = %v, want ErrShapeRagged", r.name, r.err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("distance computation deadlocked on ragged input")
		}
	}
}

// The condensed index must cover every pair exactly once.
func TestCondensedIndexing(t *testing.T) {
	for _, n := range []int{2, 3, 7, 12} {
		c := newCondensed(n)
		seen := make(map[int]bool)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				idx := c.index(i, j)
				if idx != c.index(j, i) {
					t.Fatalf("n=%d: index(%d,%d) != index(%d,%d)", n, i, j, j, i)
				}
				if idx < 0 || idx >= len(c.d) {
					t.Fatalf("n=%d: index(%d,%d) = %d out of [0,%d)", n, i, j, idx, len(c.d))
				}
				if seen[idx] {
					t.Fatalf("n=%d: index(%d,%d) = %d already used", n, i, j, idx)
				}
				seen[idx] = true
			}
		}
		if len(seen) != len(c.d) {
			t.Fatalf("n=%d: %d distinct indices for %d entries", n, len(seen), len(c.d))
		}
		// row(i) must alias the same storage the pair index reaches.
		for i := 0; i < n-1; i++ {
			row := c.row(i)
			if len(row) != n-1-i {
				t.Fatalf("n=%d: row(%d) has %d entries, want %d", n, i, len(row), n-1-i)
			}
			row[0] = float64(i + 1)
			if c.at(i, i+1) != float64(i+1) {
				t.Fatalf("n=%d: row(%d) does not alias pair (%d,%d)", n, i, i, i+1)
			}
		}
	}
}

func BenchmarkHierarchicalVsNaive400(b *testing.B) {
	rng := rand.New(rand.NewSource(49))
	points := randomPoints(rng, 400, 24)
	b.Run("nnchain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hierarchical(points); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hierarchicalNaive(points); err != nil {
				b.Fatal(err)
			}
		}
	})
}
