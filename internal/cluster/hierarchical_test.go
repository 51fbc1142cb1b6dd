package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

// blobs generates k well-separated Gaussian blobs of pointsPer points each
// in dim dimensions, returning the points and their ground-truth labels.
func blobs(rng *rand.Rand, k, pointsPer, dim int, spread float64) ([]linalg.Vector, []int) {
	points := make([]linalg.Vector, 0, k*pointsPer)
	labels := make([]int, 0, k*pointsPer)
	for c := 0; c < k; c++ {
		center := make(linalg.Vector, dim)
		for d := range center {
			center[d] = float64(c*20) + float64(d%3)
		}
		for i := 0; i < pointsPer; i++ {
			p := make(linalg.Vector, dim)
			for d := range p {
				p[d] = center[d] + rng.NormFloat64()*spread
			}
			points = append(points, p)
			labels = append(labels, c)
		}
	}
	return points, labels
}

func TestLinkageString(t *testing.T) {
	if AverageLinkage.String() != "average" {
		t.Error("linkage name wrong")
	}
	if Linkage(9).String() != "linkage(9)" {
		t.Error("unknown linkage name wrong")
	}
}

func TestHierarchicalErrors(t *testing.T) {
	if _, err := hierarchical(nil); !errors.Is(err, ErrNoPoints) {
		t.Errorf("no points: got %v", err)
	}
	ragged := []linalg.Vector{{1, 2}, {1}}
	if _, err := hierarchical(ragged); !errors.Is(err, ErrShapeRagged) {
		t.Errorf("ragged points: got %v", err)
	}
	bad := []linalg.Vector{{1}, {2}, {3}}
	if _, err := HierarchicalWorkersCtx(context.Background(), bad, Linkage(42), 0); err == nil {
		t.Error("unknown linkage should fail")
	}
}

func TestHierarchicalSinglePoint(t *testing.T) {
	d, err := hierarchical([]linalg.Vector{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 1 || len(d.Merges) != 0 {
		t.Errorf("single point dendrogram = %+v", d)
	}
	a, err := d.CutK(1)
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 1 || a.Labels[0] != 0 {
		t.Errorf("single point cut = %+v", a)
	}
}

func TestHierarchicalKnownSmallCase(t *testing.T) {
	// Points on a line: {0, 1} form one pair, {10, 11} another; the two
	// pairs merge last.
	points := []linalg.Vector{{0}, {1}, {10}, {11}}
	d, err := hierarchical(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Merges) != 3 {
		t.Fatalf("merges = %d, want 3", len(d.Merges))
	}
	// First two merges at distance 1, final merge at average distance 10.
	if d.Merges[0].Distance != 1 || d.Merges[1].Distance != 1 {
		t.Errorf("first merges at %g, %g, want 1, 1", d.Merges[0].Distance, d.Merges[1].Distance)
	}
	if math.Abs(d.Merges[2].Distance-10) > 1e-9 {
		t.Errorf("final merge at %g, want 10", d.Merges[2].Distance)
	}
	a, err := d.CutK(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 2 {
		t.Fatalf("K = %d, want 2", a.K)
	}
	if a.Labels[0] != a.Labels[1] || a.Labels[2] != a.Labels[3] || a.Labels[0] == a.Labels[2] {
		t.Errorf("labels = %v, want pairs {0,1} and {2,3}", a.Labels)
	}
	// Threshold cut at 5 gives the same two clusters.
	at, err := d.CutThreshold(5)
	if err != nil {
		t.Fatal(err)
	}
	if at.K != 2 {
		t.Errorf("threshold cut K = %d, want 2", at.K)
	}
	// Threshold below all merges leaves every point alone.
	at, err = d.CutThreshold(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if at.K != 4 {
		t.Errorf("low threshold cut K = %d, want 4", at.K)
	}
}

func TestHierarchicalRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	points, truth := blobs(rng, 4, 20, 6, 0.5)
	d, err := hierarchical(points)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.CutK(4)
	if err != nil {
		t.Fatal(err)
	}
	ari, err := AdjustedRandIndex(a.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.99 {
		t.Errorf("ARI = %g, want ~1 on well-separated blobs", ari)
	}
}

func TestMergeDistancesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	points, _ := blobs(rng, 3, 15, 4, 1.0)
	d, err := hierarchical(points)
	if err != nil {
		t.Fatal(err)
	}
	dists := d.MergeDistances()
	for i := 1; i < len(dists); i++ {
		if dists[i] < dists[i-1]-1e-9 {
			t.Errorf("merge distances not monotone at %d: %g < %g", i, dists[i], dists[i-1])
		}
	}
}

func TestCutKBounds(t *testing.T) {
	points := []linalg.Vector{{0}, {1}, {2}}
	d, err := hierarchical(points)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CutK(0); !errors.Is(err, ErrBadK) {
		t.Errorf("CutK(0): %v", err)
	}
	if _, err := d.CutK(4); !errors.Is(err, ErrBadK) {
		t.Errorf("CutK(4): %v", err)
	}
	all, err := d.CutK(3)
	if err != nil || all.K != 3 {
		t.Errorf("CutK(3) = %v, %v", all, err)
	}
	one, err := d.CutK(1)
	if err != nil || one.K != 1 {
		t.Errorf("CutK(1) = %v, %v", one, err)
	}
}

func TestThresholdForK(t *testing.T) {
	// Distinct pairwise distances so every k is reachable by a threshold
	// (with tied merge distances a distance threshold cannot separate the
	// tied merges, which is inherent to threshold-based cutting).
	points := []linalg.Vector{{0}, {1.2}, {10}, {11}}
	d, err := hierarchical(points)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		threshold, err := d.ThresholdForK(k)
		if err != nil {
			t.Fatal(err)
		}
		a, err := d.CutThreshold(threshold)
		if err != nil {
			t.Fatal(err)
		}
		if a.K != k {
			t.Errorf("threshold %g for k=%d yields %d clusters", threshold, k, a.K)
		}
	}
	if _, err := d.ThresholdForK(0); !errors.Is(err, ErrBadK) {
		t.Errorf("ThresholdForK(0): %v", err)
	}
}

// Property: for any random point set, cutting at K yields exactly K
// clusters with labels forming a partition, and every merge reduces the
// number of clusters by one.
func TestCutPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	f := func(seed uint8) bool {
		n := int(seed%12) + 2
		points := make([]linalg.Vector, n)
		for i := range points {
			points[i] = linalg.Vector{rng.NormFloat64(), rng.NormFloat64()}
		}
		d, err := hierarchical(points)
		if err != nil {
			return false
		}
		for k := 1; k <= n; k++ {
			a, err := d.CutK(k)
			if err != nil || a.K != k || len(a.Labels) != n {
				return false
			}
			seen := make(map[int]bool)
			for _, l := range a.Labels {
				if l < 0 || l >= k {
					return false
				}
				seen[l] = true
			}
			if len(seen) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAssignmentAccessors(t *testing.T) {
	a := &Assignment{Labels: []int{0, 1, 0, 2, 1}, K: 3}
	sizes := a.Sizes()
	if sizes[0] != 2 || sizes[1] != 2 || sizes[2] != 1 {
		t.Errorf("Sizes = %v", sizes)
	}
	members := a.Members()
	if len(members[0]) != 2 || members[0][0] != 0 || members[0][1] != 2 {
		t.Errorf("Members[0] = %v", members[0])
	}
}

func BenchmarkHierarchical200x144(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	points, _ := blobs(rng, 5, 40, 144, 2.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hierarchical(points); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchicalCtx2400 times the pattern identifier's agglomeration
// alone at remodel-wide's 2 400 towers: the distances are built once,
// outside the timer, and each iteration clones and agglomerates them.
func BenchmarkHierarchicalCtx2400(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	points, _ := blobs(rng, 8, 300, 16, 2.0)
	d, err := DistancesMatCtx(context.Background(), matOf(b, points), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := d.HierarchicalCtx(context.Background(), AverageLinkage); err != nil {
			b.Fatal(err)
		}
	}
}
