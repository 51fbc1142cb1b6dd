package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/synth"
)

// TestPrecisionString covers the enum's debug formatting, including the
// out-of-range fallback.
func TestPrecisionString(t *testing.T) {
	cases := []struct {
		p    Precision
		want string
	}{
		{Float64, "float64"},
		{Float32, "float32"},
		{Precision(42), "precision(42)"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("Precision(%d).String() = %q, want %q", int(c.p), got, c.want)
		}
	}
}

// TestAnalyzeRejectsUnknownPrecision: an out-of-range Precision is a
// configuration error, not a silent fall-through to float64.
func TestAnalyzeRejectsUnknownPrecision(t *testing.T) {
	city, ds := goldenCity(t)
	opts := goldenOptions()
	opts.Precision = Precision(42)
	if _, err := AnalyzeContext(context.Background(), ds, city.POIs, opts); err == nil {
		t.Fatal("Analyze accepted an unknown precision")
	}
}

// TestFloat32DecisionsMatchFloat64 is the float32 fast path's acceptance
// test: on the golden seeded city the narrowed pipeline must make the
// identical *decisions* — cluster count, memberships, land-use labels, NMF
// dominant bases — as the float64 reference. Scores (DBI values,
// reconstruction error) may differ in the last few digits; everything
// discrete must not.
func TestFloat32DecisionsMatchFloat64(t *testing.T) {
	city, ds := goldenCity(t)

	ref, err := AnalyzeContext(context.Background(), ds, city.POIs, goldenOptions())
	if err != nil {
		t.Fatal(err)
	}

	opts := goldenOptions()
	opts.Precision = Float32
	res, err := AnalyzeContext(context.Background(), ds, city.POIs, opts)
	if err != nil {
		t.Fatal(err)
	}

	got, want := snapshotModel(res), snapshotModel(ref)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("float32 decisions diverged from float64:\n  float32: %+v\n  float64: %+v", got, want)
	}
	// The DBI curves should agree closely (the curve minima already agreed
	// exactly via OptimalK above).
	if len(res.DBICurve) != len(ref.DBICurve) {
		t.Fatalf("DBI curve has %d points at float32, %d at float64", len(res.DBICurve), len(ref.DBICurve))
	}
	for i, p := range res.DBICurve {
		q := ref.DBICurve[i]
		if p.K != q.K {
			t.Fatalf("DBI curve point %d is K=%d at float32, K=%d at float64", i, p.K, q.K)
		}
		if diff := p.DBI - q.DBI; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("DBI(K=%d) = %v at float32, %v at float64", p.K, p.DBI, q.DBI)
		}
	}
}

// TestFloat32BitIdenticalAcrossWorkers: the float32 path must be as
// deterministic as the float64 one — same seed ⇒ bit-identical results for
// every Workers value.
func TestFloat32BitIdenticalAcrossWorkers(t *testing.T) {
	city, ds := goldenCity(t)
	opts := goldenOptions()
	opts.Precision = Float32
	opts.Workers = 1
	serial, err := AnalyzeContext(context.Background(), ds, city.POIs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		opts.Workers = workers
		par, err := AnalyzeContext(context.Background(), ds, city.POIs, opts)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(par.Assignment, serial.Assignment) {
			t.Errorf("workers %d: cluster assignment differs from serial run", workers)
		}
		if !reflect.DeepEqual(par.Dendrogram, serial.Dendrogram) {
			t.Errorf("workers %d: dendrogram differs from serial run", workers)
		}
		if !reflect.DeepEqual(par.DBICurve, serial.DBICurve) {
			t.Errorf("workers %d: DBI curve differs from serial run", workers)
		}
		if !reflect.DeepEqual(par.NMF.W.Data, serial.NMF.W.Data) || !reflect.DeepEqual(par.NMF.H.Data, serial.NMF.H.Data) {
			t.Errorf("workers %d: NMF factors differ from serial run", workers)
		}
	}
}

// The float32 tier narrows the dataset's rows inside each analysis and
// caches nothing on the dataset: a row edited between two calls is seen by
// the second (a narrowing cached on the Dataset would have served it the
// first call's matrix), and no call modifies the dataset.
func TestFloat32SeesRowEditedBetweenCalls(t *testing.T) {
	city, ds := goldenCity(t)
	opts := goldenOptions()
	opts.Precision = Float32
	first, err := AnalyzeContext(context.Background(), ds, city.POIs, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite row 0, in place, with the traffic of a tower from another
	// cluster.
	other := slices.IndexFunc(first.Assignment.Labels, func(l int) bool { return l != first.Assignment.Labels[0] })
	if other < 0 {
		t.Fatal("golden city has a single cluster")
	}
	copy(ds.Raw[0], ds.Raw[other])
	copy(ds.Normalized[0], ds.Normalized[other])
	before := &pipeline.Dataset{
		TowerIDs: slices.Clone(ds.TowerIDs), Locations: slices.Clone(ds.Locations),
		Start: ds.Start, SlotMinutes: ds.SlotMinutes, Days: ds.Days,
	}
	for i := range ds.Raw {
		before.Raw = append(before.Raw, ds.Raw[i].Clone())
		before.Normalized = append(before.Normalized, ds.Normalized[i].Clone())
	}

	second, err := AnalyzeContext(context.Background(), ds, city.POIs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := second.Assignment.Labels[0], second.Assignment.Labels[other]; got != want {
		t.Errorf("row 0 now carries row %d's traffic but is in cluster %d, not %d: the edit was not seen", other, got, want)
	}
	// Identical to an analysis that never saw the unedited rows (before's
	// rows are loose clones, so this also runs the packing path).
	fresh, err := AnalyzeContext(context.Background(), before, city.POIs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snapshotModel(second), snapshotModel(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("second analysis of the edited dataset differs from a fresh one:\n  second: %+v\n  fresh:  %+v", got, want)
	}
	if !reflect.DeepEqual(ds, before) {
		t.Error("AnalyzeContext modified the dataset")
	}
}

// Only NMF reads the raw matrix, so with NMF off the float32 tier narrows
// the normalised matrix alone: on a wide dataset (slots ≫ towers, so the
// matrices dominate what an analysis allocates) a Float32 analysis
// allocates less than 1.5 narrowed matrices more than a Float64 one. A
// tier that also narrowed the unread raw matrix would allocate about two.
// One candidate cluster count keeps the metric tuner's centroids, which
// are narrower at float32, from offsetting the difference.
func TestFloat32NarrowsOnlyWhatItReads(t *testing.T) {
	cfg := synth.SmallConfig()
	cfg.Towers = 60
	cfg.Days = 14
	cfg.Seed = 3
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := city.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	// The least a run allocates, over a few runs, so that a garbage
	// collection emptying a pool mid-run cannot count.
	allocated := func(p Precision) uint64 {
		opts := Options{MaxClusters: 2, Workers: 1, Precision: p}
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := AnalyzeContext(context.Background(), ds, city.POIs, opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	f64, f32 := allocated(Float64), allocated(Float32)
	narrowed := float64(ds.NumTowers() * ds.NumSlots() * 4)
	extra := float64(f32) - float64(f64)
	t.Logf("float64 %d B, float32 %d B, one narrowed matrix %.0f B", f64, f32, narrowed)
	if extra >= 1.5*narrowed {
		t.Errorf("float32 allocates %.2f narrowed matrices more than float64, want < 1.5", extra/narrowed)
	}
}
