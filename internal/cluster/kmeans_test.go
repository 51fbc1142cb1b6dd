package cluster

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func TestKMeansRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	points, truth := blobs(rng, 4, 25, 5, 0.5)
	res, err := kmeans(points, KMeansOptions{K: 4, Seed: 1, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := AdjustedRandIndex(res.Assignment.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.95 {
		t.Errorf("k-means ARI = %g, want ~1 on separated blobs", ari)
	}
	if res.Inertia <= 0 {
		t.Errorf("inertia = %g, want positive", res.Inertia)
	}
	if len(res.Centroids) != 4 {
		t.Errorf("centroids = %d, want 4", len(res.Centroids))
	}
	if res.Iterations < 1 {
		t.Error("expected at least one iteration")
	}
}

func TestKMeansDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	points, _ := blobs(rng, 3, 20, 4, 1.0)
	a, err := kmeans(points, KMeansOptions{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := kmeans(points, KMeansOptions{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignment.Labels {
		if a.Assignment.Labels[i] != b.Assignment.Labels[i] {
			t.Fatal("same seed should produce identical assignments")
		}
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := kmeans(nil, KMeansOptions{K: 2}); !errors.Is(err, ErrNoPoints) {
		t.Errorf("no points: %v", err)
	}
	points := []linalg.Vector{{1}, {2}, {3}}
	if _, err := kmeans(points, KMeansOptions{K: 0}); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := kmeans(points, KMeansOptions{K: 5}); !errors.Is(err, ErrBadK) {
		t.Errorf("k>n: %v", err)
	}
	ragged := []linalg.Vector{{1, 2}, {1}}
	if _, err := kmeans(ragged, KMeansOptions{K: 2}); !errors.Is(err, ErrShapeRagged) {
		t.Errorf("ragged: %v", err)
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	// All points identical: k-means must terminate and produce zero inertia.
	points := []linalg.Vector{{3, 3}, {3, 3}, {3, 3}, {3, 3}}
	res, err := kmeans(points, KMeansOptions{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Errorf("inertia = %g, want 0", res.Inertia)
	}
	if len(res.Assignment.Labels) != 4 {
		t.Error("every point should be labelled")
	}
}

func TestKMeansRestartsImproveOrMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	points, _ := blobs(rng, 5, 15, 3, 1.5)
	single, err := kmeans(points, KMeansOptions{K: 5, Seed: 3, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := kmeans(points, KMeansOptions{K: 5, Seed: 3, Restarts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Inertia > single.Inertia+1e-9 {
		t.Errorf("more restarts should never raise inertia: %g vs %g", multi.Inertia, single.Inertia)
	}
}

func TestKMeansVsHierarchicalOnBlobs(t *testing.T) {
	// Both algorithms should agree almost perfectly on clean blobs — the
	// baseline comparison of the benchmark harness in miniature.
	rng := rand.New(rand.NewSource(54))
	points, truth := blobs(rng, 3, 20, 6, 0.4)
	km, err := kmeans(points, KMeansOptions{K: 3, Seed: 1, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	dendro, err := hierarchical(points, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := dendro.CutK(3)
	if err != nil {
		t.Fatal(err)
	}
	ariKM, _ := AdjustedRandIndex(km.Assignment.Labels, truth)
	ariHC, _ := AdjustedRandIndex(hc.Labels, truth)
	if ariKM < 0.95 || ariHC < 0.95 {
		t.Errorf("ARI km=%g hc=%g, want both ~1", ariKM, ariHC)
	}
}

func BenchmarkKMeans200x144(b *testing.B) {
	rng := rand.New(rand.NewSource(55))
	points, _ := blobs(rng, 5, 40, 144, 2.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmeans(points, KMeansOptions{K: 5, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
