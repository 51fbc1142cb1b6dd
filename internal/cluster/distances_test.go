package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/linalg"
)

// silhouetteLabelings returns assignments of n points into k clusters that
// cover the shapes the reduction branches on: uniform random labels, one
// with a singleton cluster, and one with an empty cluster.
func silhouetteLabelings(rng *rand.Rand, n, k int) map[string]*Assignment {
	random := make([]int, n)
	for i := range random {
		random[i] = rng.Intn(k)
	}
	// Point 0 alone in cluster 0, everyone else spread over the rest.
	singleton := make([]int, n)
	for i := 1; i < n; i++ {
		singleton[i] = 1 + rng.Intn(k-1)
	}
	// Cluster k−1 has no members.
	empty := make([]int, n)
	for i := range empty {
		empty[i] = rng.Intn(max(k-1, 1))
	}
	return map[string]*Assignment{
		"random":    {Labels: random, K: k},
		"singleton": {Labels: singleton, K: k},
		"empty":     {Labels: empty, K: k},
	}
}

// The condensed one-pass silhouette must reproduce the full-matrix row scan
// it replaced: bit for bit at float64 (same distance bits, same per-row
// accumulation order), and to float32 rounding of the square roots on the
// narrowed matrix — for every worker count of the distance kernel.
func TestDistancesSilhouetteMatchesFullOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ctx := context.Background()
	workerCounts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, shape := range []struct{ n, dim int }{{2, 7}, {6, 7}, {67, 336}, {400, 336}, {1031, 48}} {
		x := matOf(t, randomPoints(rng, shape.n, shape.dim))
		x32 := linalg.Narrow(x)
		for _, k := range []int{2, 5, 10} {
			for name, a := range silhouetteLabelings(rng, shape.n, k) {
				id := fmt.Sprintf("n=%d k=%d %s", shape.n, k, name)
				want, err := silhouetteFullOracle(x, a, 1)
				if err != nil {
					t.Fatalf("%s: oracle: %v", id, err)
				}
				want32, err := silhouetteFullOracle(x32, a, 1)
				if err != nil {
					t.Fatalf("%s: float32 oracle: %v", id, err)
				}
				for _, workers := range workerCounts {
					d, err := DistancesMatCtx(ctx, x, workers)
					if err != nil {
						t.Fatal(err)
					}
					got, err := d.Silhouette(a)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s workers=%d: silhouette %v, full-matrix oracle %v", id, workers, got, want)
					}
					if viaMat, err := SilhouetteMat(x, a, workers); err != nil || math.Float64bits(viaMat) != math.Float64bits(want) {
						t.Errorf("%s workers=%d: SilhouetteMat = %v, %v; oracle %v", id, workers, viaMat, err, want)
					}
					d32, err := DistancesMatCtx(ctx, x32, workers)
					if err != nil {
						t.Fatal(err)
					}
					got32, err := d32.Silhouette(a)
					if err != nil {
						t.Fatalf("%s float32: %v", id, err)
					}
					if math.Abs(got32-want32) > 1e-5 {
						t.Errorf("%s workers=%d float32: silhouette %v, full-matrix oracle %v", id, workers, got32, want32)
					}
				}
			}
		}
	}
}

// HierarchicalCtx agglomerates over a scratch copy: it yields exactly the
// merges of the consuming HierarchicalMatCtx path any number of times on
// one Distances, and the silhouette reads the same before and after.
func TestDistancesHierarchicalLeavesDistancesIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ctx := context.Background()
	x := matOf(t, randomPoints(rng, 150, 24))
	d, err := DistancesMatCtx(ctx, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	labels := silhouetteLabelings(rng, x.Rows, 5)["random"]
	before, err := d.Silhouette(labels)
	if err != nil {
		t.Fatal(err)
	}
	want, err := HierarchicalMatCtx(ctx, x, AverageLinkage, 0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		got, err := d.HierarchicalCtx(ctx, AverageLinkage)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: dendrogram differs from HierarchicalMatCtx", round)
		}
	}
	after, err := d.Silhouette(labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after) != math.Float64bits(before) {
		t.Errorf("silhouette %v after agglomeration, %v before", after, before)
	}
	if _, err := d.HierarchicalCtx(ctx, Linkage(99)); err == nil {
		t.Error("unknown linkage should fail")
	}
}

// A single point has no distances: the dendrogram is the lone leaf and the
// silhouette is defined (zero) once the assignment names two clusters.
func TestDistancesSinglePoint(t *testing.T) {
	ctx := context.Background()
	d, err := DistancesMatCtx(ctx, linalg.NewMatrix(1, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	dendro, err := d.HierarchicalCtx(ctx, AverageLinkage)
	if err != nil || dendro.N != 1 || len(dendro.Merges) != 0 {
		t.Errorf("single point: dendrogram %+v, err %v", dendro, err)
	}
	if sil, err := d.Silhouette(&Assignment{Labels: []int{0}, K: 2}); err != nil || sil != 0 {
		t.Errorf("single point: silhouette %v, err %v", sil, err)
	}
	if _, err := DistancesMatCtx(ctx, linalg.NewMatrix(0, 3), 0); err != ErrNoPoints {
		t.Errorf("no points: err = %v, want ErrNoPoints", err)
	}
}
