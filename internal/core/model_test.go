package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/label"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/urban"
)

// testCity builds a small but realistic synthetic city and its dataset.
// Kept module-level so multiple tests reuse the same expensive setup.
var (
	sharedCity    *synth.City
	sharedDataset *pipeline.Dataset
	sharedResult  *Result
)

func buildShared(t *testing.T) (*synth.City, *pipeline.Dataset, *Result) {
	t.Helper()
	if sharedResult != nil {
		return sharedCity, sharedDataset, sharedResult
	}
	cfg := synth.SmallConfig()
	cfg.Towers = 150
	cfg.Days = 14
	cfg.Seed = 5
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := city.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeContext(context.Background(), ds, city.POIs, Options{ForceK: 5})
	if err != nil {
		t.Fatal(err)
	}
	sharedCity, sharedDataset, sharedResult = city, ds, res
	return city, ds, res
}

func TestAnalyzeEndToEnd(t *testing.T) {
	city, ds, res := buildShared(t)
	if res.OptimalK != 5 {
		t.Fatalf("OptimalK = %d, want 5 (forced)", res.OptimalK)
	}
	if res.Assignment.K != 5 || len(res.Clusters) != 5 {
		t.Fatalf("clusters = %d, want 5", res.Assignment.K)
	}
	if len(res.TowerRegions) != ds.NumTowers() || len(res.Features) != ds.NumTowers() {
		t.Fatal("per-tower outputs have wrong length")
	}
	// Shares sum to one.
	var total float64
	for _, c := range res.Clusters {
		total += c.Share
		if len(c.Members) > 0 && len(c.AggregateRaw) != ds.NumSlots() {
			t.Errorf("cluster %d aggregate has %d slots", c.Index, len(c.AggregateRaw))
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %g", total)
	}
	// All four primary regions plus comprehensive should be among labels.
	seen := make(map[urban.Region]bool)
	for _, l := range res.ClusterLabels {
		seen[l] = true
	}
	for _, r := range urban.PrimaryRegions {
		if !seen[r] {
			t.Errorf("no cluster labelled %v", r)
		}
	}
	// The recovered clustering should align well with ground truth.
	truth, err := city.GroundTruthRegions(ds)
	if err != nil {
		t.Fatal(err)
	}
	truthInts := make([]int, len(truth))
	for i, r := range truth {
		truthInts[i] = int(r)
	}
	_, purity, err := cluster.PurityAgainstTruth(res.Assignment, truthInts)
	if err != nil {
		t.Fatal(err)
	}
	if purity < 0.7 {
		t.Errorf("cluster purity vs ground truth = %g, want > 0.7", purity)
	}
	// Label accuracy against ground truth.
	overall, _, err := label.Accuracy(res.TowerRegions, truth)
	if err != nil {
		t.Fatal(err)
	}
	if overall < 0.6 {
		t.Errorf("label accuracy = %g, want > 0.6", overall)
	}
}

func TestAnalyzeMetricTunerPicksAroundFive(t *testing.T) {
	city, ds, _ := buildShared(t)
	_ = city
	res, err := AnalyzeContext(context.Background(), ds, city.POIs, Options{MaxClusters: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimalK < 3 || res.OptimalK > 8 {
		t.Errorf("metric tuner chose K=%d, expected a small number of patterns", res.OptimalK)
	}
	if len(res.DBICurve) != 7 {
		t.Errorf("DBI curve has %d points, want 7", len(res.DBICurve))
	}
}

func TestClusterByRegionAndPrimaries(t *testing.T) {
	_, _, res := buildShared(t)
	office, err := res.ClusterByRegion(urban.Office)
	if err != nil {
		t.Fatal(err)
	}
	if office.Region != urban.Office {
		t.Errorf("ClusterByRegion returned %v", office.Region)
	}
	primaries, err := res.PrimaryComponents()
	if err != nil {
		t.Fatal(err)
	}
	if len(primaries) != 4 {
		t.Fatalf("primaries = %d, want 4", len(primaries))
	}
	// The office pattern has a much stronger weekly component than the
	// resident pattern (Figure 15a / 16a).
	resident, err := res.ClusterByRegion(urban.Resident)
	if err != nil {
		t.Fatal(err)
	}
	officeWeekly := res.Features[office.Representative].AmpWeek
	residentWeekly := res.Features[resident.Representative].AmpWeek
	if officeWeekly <= residentWeekly {
		t.Errorf("office weekly amplitude (%g) should exceed resident (%g)", officeWeekly, residentWeekly)
	}
}

func TestDecomposeTower(t *testing.T) {
	_, ds, res := buildShared(t)
	// Decompose every comprehensive tower; coefficients must be a convex
	// combination.
	comp, err := res.ClusterByRegion(urban.Comprehensive)
	if err != nil {
		t.Skipf("no comprehensive cluster in this run: %v", err)
	}
	if len(comp.Members) == 0 {
		t.Skip("comprehensive cluster empty")
	}
	row := comp.Members[0]
	dec, ntf, err := res.DecomposeTower(row)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range dec.Coefficients {
		if c < -1e-9 {
			t.Errorf("negative coefficient %g", c)
		}
		sum += c
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("coefficients sum to %g", sum)
	}
	if ntf.Total() < 0 {
		t.Error("NTF-IDF should be non-negative")
	}
	if _, _, err := res.DecomposeTower(ds.NumTowers() + 5); err == nil {
		t.Error("out-of-range row should fail")
	}
	if _, _, err := res.DecomposeTower(-1); err == nil {
		t.Error("negative row should fail")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	city, ds, _ := buildShared(t)
	if _, err := AnalyzeContext(context.Background(), nil, city.POIs, Options{}); err == nil {
		t.Error("nil dataset should fail")
	}
	var empty pipeline.Dataset
	if _, err := AnalyzeContext(context.Background(), &empty, city.POIs, Options{}); err == nil {
		t.Error("empty dataset should fail")
	}
	if _, err := AnalyzeContext(context.Background(), ds, city.POIs, Options{ForceK: 10_000}); err == nil {
		t.Error("ForceK larger than tower count should fail")
	}
	// A dataset with partial weeks is rejected (frequency bins undefined):
	// the shared fortnight cut to its first ten days, otherwise valid.
	odd := *ds
	odd.Days = 10
	odd.Raw, odd.Normalized = nil, nil
	slots := odd.Days * ds.SlotsPerDay()
	for i := range ds.Raw {
		odd.Raw = append(odd.Raw, ds.Raw[i][:slots])
		odd.Normalized = append(odd.Normalized, ds.Normalized[i][:slots])
	}
	if err := odd.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeContext(context.Background(), &odd, city.POIs, Options{ForceK: 3}); err == nil {
		t.Error("partial-week dataset should fail")
	}
}

// TestAnalyzeRejectsForceKBeforeWork pins that ForceK is checked before
// the O(towers²) stages: with a context cancelled up front, a stage that
// ran first would return context.Canceled instead of the ForceK error.
func TestAnalyzeRejectsForceKBeforeWork(t *testing.T) {
	city, ds, _ := buildShared(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, k := range []int{ds.NumTowers() + 1, -1} {
		_, err := AnalyzeContext(ctx, ds, city.POIs, Options{ForceK: k})
		if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "ForceK") {
			t.Errorf("ForceK=%d on a cancelled context: err = %v, want the ForceK error", k, err)
		}
	}
}

func TestClusterByRegionMissing(t *testing.T) {
	_, _, res := buildShared(t)
	fake := *res
	fake.Clusters = nil
	if _, err := fake.ClusterByRegion(urban.Office); err == nil {
		t.Error("missing region should fail")
	}
}
