package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/linalg"
	"repro/internal/pipeline"
	"repro/internal/synth"
)

// scaledDataset rebuilds ds through pipeline.VectorizeMatrix with row i
// of the raw traffic multiplied by factor(i).
func scaledDataset(t *testing.T, ds *pipeline.Dataset, factor func(i int) float64) *pipeline.Dataset {
	t.Helper()
	raw := linalg.NewMatrix(ds.NumTowers(), ds.NumSlots())
	for i, row := range ds.Raw {
		out := raw.Row(i)
		for j, v := range row {
			out[j] = v * factor(i)
		}
	}
	out, err := pipeline.VectorizeMatrix(append([]int(nil), ds.TowerIDs...), append(ds.Locations[:0:0], ds.Locations...), raw,
		pipeline.VectorizerOptions{Start: ds.Start, SlotMinutes: ds.SlotMinutes, Days: ds.Days})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The pipeline z-scores every tower before it clusters, labels or reads a
// spectrum, and multiplying a row by a power of two commutes exactly with
// every floating-point operation of the z-score. So scaling all traffic
// by 8, or each tower by its own power of two, changes no bit of what the
// pipeline decides or measures. Scaling by 3 rounds differently, so it
// keeps the decisions only.
func TestScalingInvariance(t *testing.T) {
	cfg := synth.SmallConfig()
	cfg.Days = 14
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := city.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		factor func(i int) float64
		exact  bool
	}{
		{"x8", func(int) float64 { return 8 }, true},
		{"per-tower 2^(i mod 7 - 3)", func(i int) float64 { return math.Ldexp(1, i%7-3) }, true},
		{"x3", func(int) float64 { return 3 }, false},
	}
	for _, workers := range []int{1, 0} {
		opts := Options{Workers: workers}
		ref, err := AnalyzeContext(context.Background(), scaledDataset(t, base, func(int) float64 { return 1 }), city.POIs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, c.name), func(t *testing.T) {
				got, err := AnalyzeContext(context.Background(), scaledDataset(t, base, c.factor), city.POIs, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.OptimalK != ref.OptimalK || !reflect.DeepEqual(got.Assignment.Labels, ref.Assignment.Labels) {
					t.Fatalf("k %d, or the cluster of some tower, differs from the unscaled run's k %d", got.OptimalK, ref.OptimalK)
				}
				if !reflect.DeepEqual(got.ClusterLabels, ref.ClusterLabels) || !reflect.DeepEqual(got.TowerRegions, ref.TowerRegions) {
					t.Fatal("the functional regions differ from the unscaled run's")
				}
				if !c.exact {
					return
				}
				// %v prints the shortest decimal that identifies a float64,
				// so equal strings mean equal bits (and -0 differs from 0).
				for _, f := range []struct {
					name      string
					got, want any
				}{
					{"Silhouette", got.Silhouette, ref.Silhouette},
					{"DBICurve", got.DBICurve, ref.DBICurve},
					{"Features", got.Features, ref.Features},
				} {
					if g, w := fmt.Sprint(f.got), fmt.Sprint(f.want); g != w {
						t.Errorf("%s differs from the unscaled run's:\n got %.200s\nwant %.200s", f.name, g, w)
					}
				}
			})
		}
	}
}
