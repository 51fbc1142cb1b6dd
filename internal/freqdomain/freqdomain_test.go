package freqdomain

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dsp"
	"repro/internal/linalg"
)

// withPooledPlan runs fn with a pooled FFT plan of the vectors' length:
// the shared body of the deleted plan-less wrappers Extract and
// AmplitudeVariance, which only tests called.
func withPooledPlan[T any](vectors []linalg.Vector, fn func(*dsp.Plan) (T, error)) (T, error) {
	var zero T
	if len(vectors) == 0 {
		return zero, ErrNoVectors
	}
	plan, err := dsp.AcquirePlan(len(vectors[0]))
	if err != nil {
		return zero, err
	}
	defer plan.Release()
	return fn(plan)
}

func extract(vectors []linalg.Vector, nDays int) ([]Features, error) {
	return withPooledPlan(vectors, func(plan *dsp.Plan) ([]Features, error) {
		return ExtractPlanContext(context.Background(), plan, vectors, nDays)
	})
}

func amplitudeVariance(vectors []linalg.Vector, maxBin int) ([]float64, error) {
	return withPooledPlan(vectors, func(plan *dsp.Plan) ([]float64, error) {
		return AmplitudeVariancePlan(context.Background(), plan, vectors, maxBin)
	})
}

// tone builds an nDays-day signal at slotsPerDay resolution containing a
// daily component with the given amplitude and phase plus a half-day
// component.
func tone(nDays, slotsPerDay int, dayAmp, dayPhase, halfAmp float64) linalg.Vector {
	n := nDays * slotsPerDay
	out := make(linalg.Vector, n)
	dayBin := float64(nDays)
	halfBin := float64(2 * nDays)
	for i := 0; i < n; i++ {
		t := float64(i)
		out[i] = dayAmp*math.Cos(2*math.Pi*dayBin*t/float64(n)+dayPhase) +
			halfAmp*math.Cos(2*math.Pi*halfBin*t/float64(n))
	}
	return out
}

func TestExtractKnownTone(t *testing.T) {
	const nDays, perDay = 7, 144
	// cos(2π·k·n/N + φ) has DFT value (N/2)·e^{iφ} at bin k, so the
	// normalised amplitude is dayAmp/2 and the phase is φ.
	v := tone(nDays, perDay, 2.0, 0.7, 0.5)
	feats, err := extract([]linalg.Vector{v}, nDays)
	if err != nil {
		t.Fatal(err)
	}
	f := feats[0]
	if math.Abs(f.AmpDay-1.0) > 1e-6 {
		t.Errorf("AmpDay = %g, want 1.0", f.AmpDay)
	}
	if math.Abs(f.PhaseDay-0.7) > 1e-6 {
		t.Errorf("PhaseDay = %g, want 0.7", f.PhaseDay)
	}
	if math.Abs(f.AmpHalfDay-0.25) > 1e-6 {
		t.Errorf("AmpHalfDay = %g, want 0.25", f.AmpHalfDay)
	}
	if f.AmpWeek > 1e-6 {
		t.Errorf("AmpWeek = %g, want ~0 (no weekly component)", f.AmpWeek)
	}
	if f.Index != 0 {
		t.Errorf("Index = %d, want 0", f.Index)
	}
	v3 := f.Vector3()
	if len(v3) != 3 || v3[0] != f.AmpDay || v3[1] != f.PhaseDay || v3[2] != f.AmpHalfDay {
		t.Errorf("Vector3 = %v", v3)
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := extract(nil, 7); !errors.Is(err, ErrNoVectors) {
		t.Errorf("no vectors: %v", err)
	}
	ok := tone(7, 144, 1, 0, 0)
	ragged := []linalg.Vector{ok, ok[:100]}
	if _, err := extract(ragged, 7); !errors.Is(err, ErrBadShape) {
		t.Errorf("ragged: %v", err)
	}
	if _, err := extract([]linalg.Vector{ok}, 6); err == nil {
		t.Error("non-whole-week coverage should fail")
	}
}

func TestAmplitudeVariancePeaksAtPrincipalBins(t *testing.T) {
	const nDays, perDay = 7, 144
	rng := rand.New(rand.NewSource(61))
	// Towers differ strongly in their daily and half-day components but
	// share everything else, so the variance must spike at bins 7 and 14.
	var vectors []linalg.Vector
	for i := 0; i < 20; i++ {
		v := tone(nDays, perDay, rng.Float64()*3, 0, rng.Float64())
		vectors = append(vectors, v)
	}
	variance, err := amplitudeVariance(vectors, 30)
	if err != nil {
		t.Fatal(err)
	}
	dayBin, halfBin := nDays, 2*nDays
	for k, v := range variance {
		if k == dayBin || k == halfBin || k == 0 {
			continue
		}
		if v > variance[dayBin] {
			t.Errorf("variance at bin %d (%g) exceeds daily bin (%g)", k, v, variance[dayBin])
		}
	}
	if variance[halfBin] <= 0 {
		t.Error("half-day variance should be positive")
	}
	if _, err := amplitudeVariance(nil, 10); !errors.Is(err, ErrNoVectors) {
		t.Errorf("no vectors: %v", err)
	}
	if _, err := amplitudeVariance(vectors, 0); err == nil {
		t.Error("maxBin 0 should fail")
	}
	if _, err := amplitudeVariance(vectors, 1e6); err == nil {
		t.Error("huge maxBin should fail")
	}
	if _, err := amplitudeVariance([]linalg.Vector{vectors[0], vectors[1][:10]}, 10); err == nil {
		t.Error("ragged vectors should fail")
	}
}

func TestGroupStats(t *testing.T) {
	const nDays, perDay = 7, 144
	// Group 0: strong daily amplitude, phase ~0. Group 1: weaker amplitude,
	// phase ~π/2.
	var vectors []linalg.Vector
	for i := 0; i < 5; i++ {
		vectors = append(vectors, tone(nDays, perDay, 2.0, 0.02*float64(i), 0.2))
	}
	for i := 0; i < 5; i++ {
		vectors = append(vectors, tone(nDays, perDay, 0.6, math.Pi/2+0.02*float64(i), 0.2))
	}
	feats, err := extract(vectors, nDays)
	if err != nil {
		t.Fatal(err)
	}
	groups := [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}, {}}
	stats, err := GroupStats(feats, groups)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0][1].AmpMean <= stats[1][1].AmpMean {
		t.Errorf("group 0 daily amplitude (%g) should exceed group 1 (%g)", stats[0][1].AmpMean, stats[1][1].AmpMean)
	}
	if linalg.PhaseDistance(stats[1][1].PhaseMean, math.Pi/2) > 0.1 {
		t.Errorf("group 1 daily phase mean = %g, want ~π/2", stats[1][1].PhaseMean)
	}
	if stats[0][1].PhaseStd > 0.2 {
		t.Errorf("group 0 daily phase std = %g, want small", stats[0][1].PhaseStd)
	}
	// Empty group stays zero-valued.
	if stats[2][0].AmpMean != 0 {
		t.Error("empty group stats should be zero")
	}
	if _, err := GroupStats(feats, [][]int{{99}}); err == nil {
		t.Error("out-of-range index should fail")
	}
}

// clusteredFeatures builds two tight feature clusters plus one outlier that
// belongs to cluster 0 but sits far away from everything.
func clusteredFeatures() ([]Features, *cluster.Assignment) {
	var feats []Features
	var labels []int
	add := func(amp, phase, half float64, label int) {
		feats = append(feats, Features{Index: len(feats), AmpDay: amp, PhaseDay: phase, AmpHalfDay: half})
		labels = append(labels, label)
	}
	// Cluster 0 around (0.8, 1.0, 0.1); the member farthest from cluster 1
	// is the one with the largest amplitude.
	for i := 0; i < 6; i++ {
		add(0.78+0.01*float64(i), 1.0, 0.1, 0)
	}
	// Cluster 1 around (0.3, -1.0, 0.4).
	for i := 0; i < 6; i++ {
		add(0.29+0.01*float64(i), -1.0, 0.4, 1)
	}
	// Outlier assigned to cluster 0, extremely far from cluster 1 but
	// isolated (density 0) — must NOT be chosen as representative.
	add(30, 1.0, 0.1, 0)
	return feats, &cluster.Assignment{Labels: labels, K: 2}
}

func TestRepresentativeTowersSkipsNoise(t *testing.T) {
	feats, assign := clusteredFeatures()
	reps, err := RepresentativeTowers(feats, assign, RepOptions{DensityRadius: 0.2, MinDensity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("reps = %v", reps)
	}
	// The outlier is index 12; it must be skipped despite being farthest.
	if reps[0] == 12 {
		t.Error("noise point selected as representative")
	}
	// The chosen representative of cluster 0 should be its member with the
	// largest daily amplitude (farthest from cluster 1): index 5.
	if reps[0] != 5 {
		t.Errorf("cluster 0 representative = %d, want 5", reps[0])
	}
	// Cluster 1's representative should be the member farthest from
	// cluster 0, i.e. the one with the smallest amplitude: index 6.
	if reps[1] != 6 {
		t.Errorf("cluster 1 representative = %d, want 6", reps[1])
	}
}

// A same-cluster tower exactly DensityRadius away counts towards the
// density: here it is what lets the two close towers of cluster 0 pass
// the filter, so the isolated one is not chosen.
func TestRepresentativeTowersDensityRadiusInclusive(t *testing.T) {
	feats := []Features{
		{Index: 0, AmpDay: 0, PhaseDay: 0, AmpHalfDay: 0},
		{Index: 1, AmpDay: 0.3, PhaseDay: 0.4, AmpHalfDay: 0.1},
		{Index: 2, AmpDay: 5, PhaseDay: 0, AmpHalfDay: 0},
		{Index: 3, AmpDay: -5, PhaseDay: 0, AmpHalfDay: 0},
		{Index: 4, AmpDay: -5.1, PhaseDay: 0, AmpHalfDay: 0},
	}
	assign := &cluster.Assignment{Labels: []int{0, 0, 0, 1, 1}, K: 2}
	radius, err := linalg.Distance(feats[0].Vector3(), feats[1].Vector3())
	if err != nil {
		t.Fatal(err)
	}
	reps, err := RepresentativeTowers(feats, assign, RepOptions{DensityRadius: radius, MinDensity: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Towers 0 and 1 pass with density 1; 1 is the farther from cluster 1.
	if reps[0] != 1 {
		t.Errorf("cluster 0 representative = %d, want 1 (the neighbour at exactly the radius counts)", reps[0])
	}
}

func TestRepresentativeTowersDefaultsAndErrors(t *testing.T) {
	feats, assign := clusteredFeatures()
	reps, err := RepresentativeTowers(feats, assign, RepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reps[0] < 0 || reps[1] < 0 {
		t.Errorf("default options produced invalid reps %v", reps)
	}
	if _, err := RepresentativeTowers(nil, assign, RepOptions{}); !errors.Is(err, ErrNoVectors) {
		t.Errorf("no features: %v", err)
	}
	bad := &cluster.Assignment{Labels: []int{0}, K: 1}
	if _, err := RepresentativeTowers(feats, bad, RepOptions{}); err == nil {
		t.Error("label count mismatch should fail")
	}
	// A cluster so small that nothing passes the density filter still gets
	// a (fallback) representative.
	tiny := []Features{{Index: 0, AmpDay: 1}, {Index: 1, AmpDay: 2}}
	tinyAssign := &cluster.Assignment{Labels: []int{0, 1}, K: 2}
	reps, err = RepresentativeTowers(tiny, tinyAssign, RepOptions{MinDensity: 5})
	if err != nil {
		t.Fatal(err)
	}
	if reps[0] != 0 || reps[1] != 1 {
		t.Errorf("fallback reps = %v", reps)
	}
	// Empty cluster gets -1.
	withEmpty := &cluster.Assignment{Labels: []int{0, 0}, K: 2}
	reps, err = RepresentativeTowers(tiny, withEmpty, RepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reps[1] != -1 {
		t.Errorf("empty cluster representative = %d, want -1", reps[1])
	}
}

func TestDecomposeVertexAndMixture(t *testing.T) {
	primaries := []Features{
		{AmpDay: 0.9, PhaseDay: 1.3, AmpHalfDay: 0.05},
		{AmpDay: 0.4, PhaseDay: 2.8, AmpHalfDay: 0.60},
		{AmpDay: 0.7, PhaseDay: 2.0, AmpHalfDay: 0.10},
		{AmpDay: 0.5, PhaseDay: -2.0, AmpHalfDay: 0.20},
	}
	// A target equal to primary 2 decomposes onto that vertex.
	d, err := Decompose(primaries[2], primaries)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Coefficients[2]-1) > 1e-3 || d.Residual > 1e-3 {
		t.Errorf("vertex decomposition = %+v", d)
	}
	// A known interior mixture is recovered.
	want := linalg.Vector{0.5, 0.2, 0.2, 0.1}
	var mix Features
	for i, w := range want {
		mix.AmpDay += w * primaries[i].AmpDay
		mix.PhaseDay += w * primaries[i].PhaseDay
		mix.AmpHalfDay += w * primaries[i].AmpHalfDay
	}
	d, err = Decompose(mix, primaries)
	if err != nil {
		t.Fatal(err)
	}
	if d.Residual > 1e-6 {
		t.Errorf("interior residual = %g", d.Residual)
	}
	for i := range want {
		if math.Abs(d.Coefficients[i]-want[i]) > 0.02 {
			t.Errorf("coefficient[%d] = %g, want %g", i, d.Coefficients[i], want[i])
		}
	}
	if _, err := Decompose(mix, nil); !errors.Is(err, ErrNoPrimaries) {
		t.Errorf("no primaries: %v", err)
	}
}

func TestDecomposeAll(t *testing.T) {
	primaries := []Features{
		{AmpDay: 1, PhaseDay: 0, AmpHalfDay: 0},
		{AmpDay: 0, PhaseDay: 1, AmpHalfDay: 0},
	}
	targets := []Features{primaries[0], primaries[1]}
	ds, err := DecomposeAll(targets, primaries)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 {
		t.Fatalf("len = %d", len(ds))
	}
	if math.Abs(ds[0].Coefficients[0]-1) > 1e-3 || math.Abs(ds[1].Coefficients[1]-1) > 1e-3 {
		t.Errorf("decompositions = %+v, %+v", ds[0], ds[1])
	}
}

func TestCombineTimeDomain(t *testing.T) {
	const nDays, perDay = 7, 144
	s1 := tone(nDays, perDay, 2, 0, 0)
	s2 := tone(nDays, perDay, 0, 0, 1)
	d := &Decomposition{Coefficients: linalg.Vector{0.25, 0.75}}
	tc, err := CombineTimeDomain(d, []linalg.Vector{s1, s2}, nDays)
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.Components) != 2 || len(tc.Combined) != nDays*perDay {
		t.Fatalf("shape = %d components × %d", len(tc.Components), len(tc.Combined))
	}
	// Components are the scaled originals (the signals are pure tones so
	// the band-limited reconstruction is lossless).
	for i := 0; i < 10; i++ {
		if math.Abs(tc.Components[0][i]-0.25*s1[i]) > 1e-6 {
			t.Errorf("component 0 slot %d = %g, want %g", i, tc.Components[0][i], 0.25*s1[i])
		}
		want := 0.25*s1[i] + 0.75*s2[i]
		if math.Abs(tc.Combined[i]-want) > 1e-6 {
			t.Errorf("combined slot %d = %g, want %g", i, tc.Combined[i], want)
		}
	}
	// Errors.
	if _, err := CombineTimeDomain(nil, nil, 7); err == nil {
		t.Error("nil decomposition should fail")
	}
	if _, err := CombineTimeDomain(d, []linalg.Vector{s1}, nDays); err == nil {
		t.Error("series/coefficient count mismatch should fail")
	}
	if _, err := CombineTimeDomain(&Decomposition{Coefficients: linalg.Vector{}}, nil, nDays); !errors.Is(err, ErrNoPrimaries) {
		t.Errorf("empty primaries: %v", err)
	}
	if _, err := CombineTimeDomain(d, []linalg.Vector{s1, s2[:10]}, nDays); err == nil {
		t.Error("ragged series should fail")
	}
	if _, err := CombineTimeDomain(d, []linalg.Vector{s1, s2}, 6); err == nil {
		t.Error("non-whole-week coverage should fail")
	}
}

func BenchmarkExtract100Towers7Days(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	var vectors []linalg.Vector
	for i := 0; i < 100; i++ {
		vectors = append(vectors, tone(7, 144, rng.Float64(), rng.Float64(), rng.Float64()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extract(vectors, 7); err != nil {
			b.Fatal(err)
		}
	}
}
