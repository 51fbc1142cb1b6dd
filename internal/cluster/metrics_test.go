package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func twoBlobAssignment() ([]linalg.Vector, *Assignment) {
	points := []linalg.Vector{{0, 0}, {1, 0}, {0, 1}, {10, 10}, {11, 10}, {10, 11}}
	return points, &Assignment{Labels: []int{0, 0, 0, 1, 1, 1}, K: 2}
}

func TestCentroids(t *testing.T) {
	points, a := twoBlobAssignment()
	c, err := CentroidsMat(matOf(t, points), a)
	if err != nil {
		t.Fatal(err)
	}
	want0 := linalg.Vector{1.0 / 3, 1.0 / 3}
	want1 := linalg.Vector{31.0 / 3, 31.0 / 3}
	for i := range want0 {
		if math.Abs(c.At(0, i)-want0[i]) > 1e-9 || math.Abs(c.At(1, i)-want1[i]) > 1e-9 {
			t.Errorf("centroids = %v", c.Data)
		}
	}
	if _, err := CentroidsMat(linalg.NewMatrix(0, 2), a); !errors.Is(err, ErrNoPoints) {
		t.Errorf("no points: %v", err)
	}
}

// Every validity index must reject an assignment that does not fit the
// points with the same error, at both precisions and through the slice
// adapters — the silhouette used to index out of range on a label ≥ K.
func TestValidityIndicesRejectBadAssignment(t *testing.T) {
	points := []linalg.Vector{{0, 0}, {1, 0}, {10, 10}, {11, 10}}
	x := matOf(t, points)
	cases := []struct {
		name string
		a    Assignment
	}{
		{"label count mismatch", Assignment{K: 2, Labels: []int{0, 1}}},
		{"label above K", Assignment{K: 2, Labels: []int{0, 1, 5, 0}}},
		{"negative label", Assignment{K: 2, Labels: []int{0, 1, -1, 0}}},
	}
	for _, c := range cases {
		_, want := CentroidsMat(x, &c.a)
		if want == nil {
			t.Errorf("%s: CentroidsMat accepted it", c.name)
			continue
		}
		got := map[string]error{}
		_, got["CentroidsMat/float32"] = CentroidsMat(linalg.Narrow(x), &c.a)
		_, got["DaviesBouldinMat"] = DaviesBouldinMat(x, &c.a, 1)
		_, got["DaviesBouldinMat/float32"] = DaviesBouldinMat(linalg.Narrow(x), &c.a, 1)
		_, got["DaviesBouldinWorkers"] = DaviesBouldinWorkers(points, &c.a, 1)
		_, got["SilhouetteMat"] = SilhouetteMat(x, &c.a, 1)
		_, got["SilhouetteMat/float32"] = SilhouetteMat(linalg.Narrow(x), &c.a, 1)
		_, got["SilhouetteWorkers"] = SilhouetteWorkers(points, &c.a, 1)
		for fn, err := range got {
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s: %s error = %v, want %v", c.name, fn, err, want)
			}
		}
	}
}

// The slice adapters keep the cluster package's own error identities for
// the shapes a matrix cannot express.
func TestSliceAdaptersRejectBadShapes(t *testing.T) {
	_, a := twoBlobAssignment()
	ragged := []linalg.Vector{{0, 0}, {1}, {0, 1}, {10, 10}, {11, 10}, {10, 11}}
	dendro := &Dendrogram{N: 6}
	for _, c := range []struct {
		name   string
		points []linalg.Vector
		want   error
	}{
		{"no points", nil, ErrNoPoints},
		{"ragged", ragged, ErrShapeRagged},
	} {
		if _, err := DaviesBouldinWorkers(c.points, a, 1); !errors.Is(err, c.want) {
			t.Errorf("%s: DaviesBouldinWorkers error = %v", c.name, err)
		}
		if _, err := SilhouetteWorkers(c.points, a, 1); !errors.Is(err, c.want) {
			t.Errorf("%s: SilhouetteWorkers error = %v", c.name, err)
		}
		if _, _, err := OptimalKCtx(context.Background(), c.points, dendro, 2, 3, 1); !errors.Is(err, c.want) {
			t.Errorf("%s: OptimalKCtx error = %v", c.name, err)
		}
	}
}

func TestDaviesBouldinSeparatedVsMixed(t *testing.T) {
	points, good := twoBlobAssignment()
	dbiGood, err := DaviesBouldinMat(matOf(t, points), good, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately shuffled assignment mixes the blobs and must score
	// far worse (higher DBI).
	bad := &Assignment{Labels: []int{0, 1, 0, 1, 0, 1}, K: 2}
	dbiBad, err := DaviesBouldinMat(matOf(t, points), bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dbiGood <= 0 {
		t.Errorf("DBI of separated clustering = %g, want positive", dbiGood)
	}
	if dbiBad <= dbiGood*2 {
		t.Errorf("mixed clustering DBI (%g) should be much worse than separated (%g)", dbiBad, dbiGood)
	}
}

func TestDaviesBouldinErrors(t *testing.T) {
	points, _ := twoBlobAssignment()
	single := &Assignment{Labels: []int{0, 0, 0, 0, 0, 0}, K: 1}
	if _, err := DaviesBouldinMat(matOf(t, points), single, 0); err == nil {
		t.Error("single cluster should fail")
	}
	// Coincident centroids: identical points split across two clusters.
	same := []linalg.Vector{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	a := &Assignment{Labels: []int{0, 0, 1, 1}, K: 2}
	dbi, err := DaviesBouldinMat(matOf(t, same), a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dbi, 1) {
		t.Errorf("coincident centroids DBI = %g, want +Inf", dbi)
	}
}

func TestDistancesToCentroid(t *testing.T) {
	points, a := twoBlobAssignment()
	dists, err := DistancesToCentroid(matOf(t, points), a)
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) != 2 || len(dists[0]) != 3 || len(dists[1]) != 3 {
		t.Fatalf("shape = %v", dists)
	}
	for _, cluster := range dists {
		for i := 1; i < len(cluster); i++ {
			if cluster[i] < cluster[i-1] {
				t.Error("distances should be sorted")
			}
		}
		for _, d := range cluster {
			if d < 0 || d > 1 {
				t.Errorf("distance %g outside expected range for tight blobs", d)
			}
		}
	}
}

func TestSilhouette(t *testing.T) {
	points, good := twoBlobAssignment()
	x := matOf(t, points)
	s, err := SilhouetteMat(x, good, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.8 {
		t.Errorf("silhouette of well-separated blobs = %g, want > 0.8", s)
	}
	bad := &Assignment{Labels: []int{0, 1, 0, 1, 0, 1}, K: 2}
	sBad, err := SilhouetteMat(x, bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sBad >= s {
		t.Errorf("mixed silhouette (%g) should be below separated (%g)", sBad, s)
	}
	if _, err := SilhouetteMat(linalg.NewMatrix(0, 2), good, 0); !errors.Is(err, ErrNoPoints) {
		t.Errorf("no points: %v", err)
	}
	if _, err := SilhouetteMat(x, &Assignment{Labels: []int{0, 0, 0, 0, 0, 0}, K: 1}, 0); err == nil {
		t.Error("single cluster silhouette should fail")
	}
}

func TestDBICurveAndOptimalK(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	points, _ := blobs(rng, 3, 15, 4, 0.4)
	ctx, x := context.Background(), matOf(t, points)
	dendro, err := HierarchicalMatCtx(ctx, x, AverageLinkage, 0)
	if err != nil {
		t.Fatal(err)
	}
	bestK, curve, err := OptimalKMatCtx(ctx, x, dendro, 2, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bestK != 3 {
		t.Errorf("optimal K = %d, want 3 for three blobs", bestK)
	}
	if len(curve) != 7 {
		t.Errorf("curve has %d points, want 7", len(curve))
	}
	for _, p := range curve {
		if p.DBI < 0 {
			t.Errorf("negative DBI at k=%d", p.K)
		}
		// Threshold must reproduce the same k.
		a, err := dendro.CutThreshold(p.Threshold)
		if err != nil {
			t.Fatal(err)
		}
		if a.K != p.K {
			t.Errorf("threshold %g yields %d clusters, want %d", p.Threshold, a.K, p.K)
		}
	}
	if _, err := DBICurveMatCtx(ctx, x, dendro, 1, 5, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("minK=1: %v", err)
	}
	if _, err := DBICurveMatCtx(ctx, x, dendro, 4, 2, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("maxK<minK: %v", err)
	}
}

func TestAdjustedRandIndex(t *testing.T) {
	// Identical partitions → 1 even with different label names.
	a := []int{0, 0, 1, 1, 2, 2}
	b := []int{5, 5, 9, 9, 7, 7}
	ari, err := AdjustedRandIndex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ari-1) > 1e-12 {
		t.Errorf("identical partitions ARI = %g, want 1", ari)
	}
	// Completely split vs completely merged is a degenerate comparison.
	allSame := []int{0, 0, 0, 0, 0, 0}
	ari, err = AdjustedRandIndex(a, allSame)
	if err != nil {
		t.Fatal(err)
	}
	if ari > 0.2 {
		t.Errorf("ARI against a single cluster = %g, want ~0", ari)
	}
	if _, err := AdjustedRandIndex([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := AdjustedRandIndex(nil, nil); !errors.Is(err, ErrNoPoints) {
		t.Errorf("empty labels: %v", err)
	}
}

func TestPurityAgainstTruth(t *testing.T) {
	predicted := &Assignment{Labels: []int{0, 0, 0, 1, 1}, K: 2}
	truth := []int{7, 7, 8, 9, 9}
	perCluster, overall, err := PurityAgainstTruth(predicted, truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(perCluster[0]-2.0/3) > 1e-9 || perCluster[1] != 1 {
		t.Errorf("per-cluster purity = %v", perCluster)
	}
	if math.Abs(overall-4.0/5) > 1e-9 {
		t.Errorf("overall purity = %g, want 0.8", overall)
	}
	if _, _, err := PurityAgainstTruth(predicted, []int{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := PurityAgainstTruth(&Assignment{K: 0}, nil); !errors.Is(err, ErrNoPoints) {
		t.Errorf("empty truth: %v", err)
	}
}
