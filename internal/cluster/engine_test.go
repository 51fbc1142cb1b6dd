package cluster

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/linalg"
	"repro/internal/synth"
)

// Relative tolerances on the values the one implementation reports (merge
// distances, DBI, silhouette, centroids) against the float64
// per-pair oracles: Gram-trick reassociation at float64, plus the input
// narrowing and float32 kernel arithmetic at float32. Decisions — merge
// order, cut labels, the tuned cluster count — are compared exactly at
// both precisions.
const (
	float64Tol = 1e-9
	float32Tol = 1e-4
)

// cityMatrix builds the normalised traffic matrix of a seeded synthetic
// city — the realistic workload the decisions-unchanged guarantees are
// pinned on before the golden e2e fixture is trusted.
func cityMatrix(t *testing.T, towers int, seed int64) *linalg.Matrix {
	t.Helper()
	cfg := synth.SmallConfig()
	cfg.Towers = towers
	cfg.Days = 7
	cfg.Seed = seed
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := city.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	return matOf(t, ds.Normalized)
}

func within(got, want, relTol float64) bool {
	return math.Abs(got-want) <= relTol*(1+math.Abs(want))
}

// The blocked Gram-trick kernel must reproduce the per-pair condensed
// distances at either precision.
func TestCondensedDistancesMatchPerPairOracle(t *testing.T) {
	x := cityMatrix(t, 90, 31)
	want, err := condensedDistancesOracle(x.RowViews())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("float64", func(t *testing.T) { condensedMatchesOracle(t, x, want, float64Tol) })
	t.Run("float32", func(t *testing.T) { condensedMatchesOracle(t, linalg.Narrow(x), want, float32Tol) })
}

func condensedMatchesOracle[F linalg.Float](t *testing.T, x *linalg.Mat[F], want condensed, relTol float64) {
	got := newCondensed(x.Rows)
	if err := condensedInto(context.Background(), got.d, x, 0); err != nil {
		t.Fatal(err)
	}
	for i, d := range got.d {
		if !within(d, want.d[i], relTol) {
			t.Fatalf("condensed entry %d = %g, oracle %g", i, d, want.d[i])
		}
	}
}

// The blocked Gram-trick engine must make the identical agglomeration
// decisions as the per-pair distance oracle on seeded city traffic, at
// either precision: same merge pairs in the same order, same sizes, same
// cut partitions for k = 1..10, distances within tolerance.
func TestHierarchicalDecisionsUnchangedOnSeededCity(t *testing.T) {
	x := cityMatrix(t, 90, 31)
	t.Run("float64", func(t *testing.T) { hierarchicalMatchesOracle(t, x, x.RowViews(), float64Tol) })
	t.Run("float32", func(t *testing.T) { hierarchicalMatchesOracle(t, linalg.Narrow(x), x.RowViews(), float32Tol) })
}

func hierarchicalMatchesOracle[F linalg.Float](t *testing.T, x *linalg.Mat[F], points []linalg.Vector, relTol float64) {
	got, err := HierarchicalMatCtx(context.Background(), x, AverageLinkage, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hierarchicalPerPairOracle(points)
	if err != nil {
		t.Fatal(err)
	}
	sameDendrogram(t, got, want, relTol, 10)
}

// The blocked validity indices must agree with their per-pair oracles on
// city traffic at either precision, and the metric tuner must pick the
// cluster count the float64 per-pair Davies–Bouldin sweep picks.
func TestValidityIndicesMatchPerPairOracles(t *testing.T) {
	x := cityMatrix(t, 80, 41)
	t.Run("float64", func(t *testing.T) { validityMatchesOracles(t, x, x.RowViews(), float64Tol) })
	t.Run("float32", func(t *testing.T) { validityMatchesOracles(t, linalg.Narrow(x), x.RowViews(), float32Tol) })
}

func validityMatchesOracles[F linalg.Float](t *testing.T, x *linalg.Mat[F], points []linalg.Vector, relTol float64) {
	ctx := context.Background()
	dendro, err := HierarchicalMatCtx(ctx, x, AverageLinkage, 0)
	if err != nil {
		t.Fatal(err)
	}
	bestK, curve, err := OptimalKMatCtx(ctx, x, dendro, 2, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracleK, oracleDBI := 0, math.Inf(1)
	for _, p := range curve {
		assign, err := dendro.CutK(p.K)
		if err != nil {
			t.Fatal(err)
		}
		centroids, err := CentroidsMat(x, assign)
		if err != nil {
			t.Fatal(err)
		}
		for c, want := range centroidsOracle(points, assign) {
			for j, w := range want {
				if !within(float64(centroids.At(c, j)), w, relTol) {
					t.Fatalf("k=%d: centroid %d[%d] = %g, oracle %g", p.K, c, j, centroids.At(c, j), w)
				}
			}
		}
		dbiOracle, err := daviesBouldinOracle(points, assign)
		if err != nil {
			t.Fatal(err)
		}
		if !within(p.DBI, dbiOracle, relTol) {
			t.Errorf("k=%d: DBI %g, oracle %g", p.K, p.DBI, dbiOracle)
		}
		if dbiOracle < oracleDBI {
			oracleK, oracleDBI = p.K, dbiOracle
		}
		sil, err := SilhouetteMat(x, assign, 0)
		if err != nil {
			t.Fatal(err)
		}
		silOracle, err := silhouetteOracle(points, assign)
		if err != nil {
			t.Fatal(err)
		}
		if !within(sil, silOracle, relTol) {
			t.Errorf("k=%d: silhouette %g, oracle %g", p.K, sil, silOracle)
		}
	}
	if bestK != oracleK {
		t.Errorf("metric tuner picked K=%d, per-pair oracle sweep picks K=%d", bestK, oracleK)
	}
}

// The validity indices must be bit-identical for any worker count.
func TestValidityIndicesBitIdenticalAcrossWorkers(t *testing.T) {
	x := cityMatrix(t, 70, 43)
	t.Run("float64", func(t *testing.T) { validityBitIdenticalAcrossWorkers(t, x) })
	t.Run("float32", func(t *testing.T) { validityBitIdenticalAcrossWorkers(t, linalg.Narrow(x)) })
}

func validityBitIdenticalAcrossWorkers[F linalg.Float](t *testing.T, x *linalg.Mat[F]) {
	ctx := context.Background()
	dendro, err := HierarchicalMatCtx(ctx, x, AverageLinkage, 0)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := dendro.CutK(4)
	if err != nil {
		t.Fatal(err)
	}
	dbiBase, err := DaviesBouldinMat(x, assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	silBase, err := SilhouetteMat(x, assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	curveBase, err := DBICurveMatCtx(ctx, x, dendro, 2, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range testWorkerCounts() {
		dbi, err := DaviesBouldinMat(x, assign, workers)
		if err != nil {
			t.Fatal(err)
		}
		if dbi != dbiBase {
			t.Errorf("workers %d: DBI %g differs from serial %g", workers, dbi, dbiBase)
		}
		sil, err := SilhouetteMat(x, assign, workers)
		if err != nil {
			t.Fatal(err)
		}
		if sil != silBase {
			t.Errorf("workers %d: silhouette %g differs from serial %g", workers, sil, silBase)
		}
		curve, err := DBICurveMatCtx(ctx, x, dendro, 2, 6, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(curve, curveBase) {
			t.Errorf("workers %d: DBI curve differs from serial", workers)
		}
	}
}
