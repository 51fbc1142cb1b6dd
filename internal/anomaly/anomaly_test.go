package anomaly

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

const (
	slotsPerDay = 144
	days        = 14
)

// regularTraffic builds a strongly periodic traffic series with mild
// multiplicative noise.
func regularTraffic(rng *rand.Rand, noise float64) linalg.Vector {
	out := make(linalg.Vector, days*slotsPerDay)
	for i := range out {
		day := i / slotsPerDay
		hour := float64(i%slotsPerDay) / 6
		v := 1000 + 4000*math.Exp(-0.5*math.Pow((hour-12)/2.5, 2)) + 2500*math.Exp(-0.5*math.Pow((hour-21)/2, 2))
		if day%7 >= 5 {
			v *= 0.8
		}
		if noise > 0 {
			v *= math.Exp(rng.NormFloat64() * noise)
		}
		out[i] = v
	}
	return out
}

func TestDetectCleanTrafficHasFewAnomalies(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	traffic := regularTraffic(rng, 0.05)
	report, err := Detect(traffic, days, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The report describes a model of the whole vector: rebuilt from its
	// bins, the reconstruction tracks the clean traffic closely.
	expected := expectedOf(t, traffic, report)
	if len(expected) != len(traffic) {
		t.Fatal("reconstruction shape wrong")
	}
	absErr := 0.0
	for i, v := range traffic {
		absErr += math.Abs(v - expected[i])
	}
	if rel := absErr / float64(len(traffic)) / traffic.Mean(); rel > 0.2 {
		t.Errorf("mean absolute residual is %.2f of the mean traffic, want a close fit on clean traffic", rel)
	}
	if report.Scale <= 0 {
		t.Fatal("robust scale should be positive for noisy traffic")
	}
	// Clean traffic: at most a handful of false positives.
	if len(report.Anomalies) > len(traffic)/200 {
		t.Errorf("clean traffic flagged %d anomalies", len(report.Anomalies))
	}
}

func TestDetectFindsInjectedSurge(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	traffic := regularTraffic(rng, 0.05)
	// Inject a flash-crowd surge on day 9 at ~20:00 lasting one hour.
	surgeStart := 9*slotsPerDay + 20*6
	for s := surgeStart; s < surgeStart+6; s++ {
		traffic[s] *= 6
	}
	// And an outage (near-zero traffic) on day 4 at midday.
	outageStart := 4*slotsPerDay + 12*6
	for s := outageStart; s < outageStart+6; s++ {
		traffic[s] *= 0.02
	}
	report, err := Detect(traffic, days, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Anomalies) == 0 {
		t.Fatal("injected surge not detected")
	}
	foundSurge, foundOutage := false, false
	for _, a := range report.Anomalies {
		if a.Slot >= surgeStart && a.Slot < surgeStart+6 {
			foundSurge = true
			if a.Observed <= a.Expected {
				t.Error("surge anomaly should exceed its expectation")
			}
		}
		if a.Slot >= outageStart && a.Slot < outageStart+6 {
			foundOutage = true
			if a.Observed >= a.Expected {
				t.Error("outage anomaly should fall below its expectation")
			}
		}
	}
	if !foundSurge {
		t.Error("surge slots not among the anomalies")
	}
	if !foundOutage {
		t.Error("outage slots not among the anomalies")
	}
	// Anomalies are sorted by descending score.
	for i := 1; i < len(report.Anomalies); i++ {
		if report.Anomalies[i].Score > report.Anomalies[i-1].Score {
			t.Fatal("anomalies not sorted by score")
		}
	}
	// The false-positive load stays modest: flagged slots outside the two
	// injected windows are rare.
	outside := 0
	for _, a := range report.Anomalies {
		inSurge := a.Slot >= surgeStart && a.Slot < surgeStart+6
		inOutage := a.Slot >= outageStart && a.Slot < outageStart+6
		if !inSurge && !inOutage {
			outside++
		}
	}
	if outside > 12 {
		t.Errorf("%d anomalies outside the injected windows", outside)
	}
}

func TestDetectQuietHourDeviationsAreSuppressed(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	traffic := regularTraffic(rng, 0.02)
	// A tiny absolute bump at 04:00 (quiet hours): statistically visible
	// but operationally irrelevant; MinRelativeDeviation suppresses it.
	slot := 6*slotsPerDay + 4*6
	traffic[slot] += traffic.Mean() * 0.1
	report, err := Detect(traffic, days, Options{Threshold: 4, MinRelativeDeviation: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range report.Anomalies {
		if a.Slot == slot {
			t.Error("tiny quiet-hour bump should be suppressed by MinRelativeDeviation")
		}
	}
}

func TestDetectErrors(t *testing.T) {
	if _, err := Detect(nil, 14, Options{}); !errors.Is(err, ErrEmptySignal) {
		t.Errorf("empty: %v", err)
	}
	bad := make(linalg.Vector, 10)
	bad[3] = math.NaN()
	if _, err := Detect(bad, 14, Options{}); !errors.Is(err, ErrEmptySignal) {
		t.Errorf("NaN: %v", err)
	}
	short := make(linalg.Vector, 100)
	if _, err := Detect(short, 5, Options{}); !errors.Is(err, ErrBadShape) {
		t.Errorf("non-whole-week: %v", err)
	}
}

func TestDetectConstantTraffic(t *testing.T) {
	// Constant traffic has zero residual scale; nothing is flagged and the
	// detector does not divide by zero.
	traffic := make(linalg.Vector, days*slotsPerDay)
	for i := range traffic {
		traffic[i] = 500
	}
	report, err := Detect(traffic, days, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Scale != 0 || len(report.Anomalies) != 0 {
		t.Errorf("constant traffic: scale=%g anomalies=%d", report.Scale, len(report.Anomalies))
	}
}

func TestDetectAll(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	towers := []linalg.Vector{regularTraffic(rng, 0.05), regularTraffic(rng, 0.05)}
	reports, err := DetectAll(towers, days, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	if _, err := DetectAll([]linalg.Vector{nil}, days, Options{}); err == nil {
		t.Error("empty tower should fail")
	}
}

func TestRobustScale(t *testing.T) {
	// For a symmetric sample without outliers the robust scale approximates
	// the standard deviation.
	rng := rand.New(rand.NewSource(95))
	v := make(linalg.Vector, 5000)
	for i := range v {
		v[i] = rng.NormFloat64() * 3
	}
	work := make(linalg.Vector, len(v))
	s := robustScale(v, work)
	if math.Abs(s-3) > 0.3 {
		t.Errorf("robust scale = %g, want ~3", s)
	}
	// And it is unmoved by a few massive outliers.
	for i := 0; i < 20; i++ {
		v[i] = 1e6
	}
	if math.Abs(robustScale(v, work)-s) > 0.3 {
		t.Error("robust scale should resist outliers")
	}
	if robustScale(nil, nil) != 0 {
		t.Error("empty scale should be 0")
	}
}

func BenchmarkDetect(b *testing.B) {
	rng := rand.New(rand.NewSource(96))
	traffic := regularTraffic(rng, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(traffic, days, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOptionsDisableSentinels(t *testing.T) {
	// Zero value keeps the documented defaults.
	d := Options{}.withDefaults()
	if d.Threshold != 5 || d.MinRelativeDeviation != 0.5 {
		t.Errorf("zero-value defaults = %+v", d)
	}
	// Sub-default positive values are taken as given, not clamped up.
	d = Options{Threshold: 0.5, MinRelativeDeviation: 0.01}.withDefaults()
	if d.Threshold != 0.5 || d.MinRelativeDeviation != 0.01 {
		t.Errorf("sub-default values rewritten: %+v", d)
	}
	// Disabled (negative) switches the filters off entirely.
	d = Options{Threshold: Disabled, MinRelativeDeviation: Disabled}.withDefaults()
	if d.Threshold != 0 || d.MinRelativeDeviation != 0 {
		t.Errorf("Disabled not honoured: %+v", d)
	}
}

func TestDetectWithFiltersDisabledFlagsEverySlot(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	traffic := regularTraffic(rng, 0.05)
	opts := Options{Threshold: Disabled, MinRelativeDeviation: Disabled}
	report, err := Detect(traffic, days, opts)
	if err != nil {
		t.Fatal(err)
	}
	// No score cut and no relative-deviation floor: every slot is reported
	// (the "give me every score" query of the serving API).
	if len(report.Anomalies) != len(traffic) {
		t.Errorf("disabled filters flagged %d of %d slots", len(report.Anomalies), len(traffic))
	}
	// The default options must still apply both filters.
	defReport, err := Detect(traffic, days, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(defReport.Anomalies) >= len(traffic)/2 {
		t.Errorf("default options flagged %d of %d slots", len(defReport.Anomalies), len(traffic))
	}
}

func TestDetectMinRelativeDeviationDisabledKeepsQuietHourHits(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	traffic := regularTraffic(rng, 0.05)
	// A statistically extreme but absolutely small bump at 04:00, sized
	// from the data to land between the two filters: its score clears the
	// default Threshold, its deviation stays under the default floor of
	// MinRelativeDeviation × mean. The default suppresses it, Disabled
	// reports it.
	slot := 9*slotsPerDay + 4*6
	find := func(r *Report) (Anomaly, bool) {
		for _, a := range r.Anomalies {
			if a.Slot == slot {
				return a, true
			}
		}
		return Anomaly{}, false
	}
	// The model of the clean traffic, rebuilt from its report, gives the
	// slot's expected value and the scale the score divides by.
	clean, err := Detect(traffic, days, Options{})
	if err != nil {
		t.Fatal(err)
	}
	expected := expectedOf(t, traffic, clean)[slot]
	def := Options{}.withDefaults()
	floor := def.MinRelativeDeviation * traffic.Mean()
	// The deviation whose score is exactly Threshold; the bump sits midway
	// between it and the floor.
	least := def.Threshold * clean.Scale * expected
	if least >= floor/2 {
		t.Fatalf("no room between the filters: a score of %g needs a deviation of %.0f, the floor is %.0f", def.Threshold, least, floor)
	}
	traffic[slot] = expected + (least+floor)/2

	defReport, err := Detect(traffic, days, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a, hit := find(defReport); hit {
		t.Errorf("the default floor should suppress the quiet-hour bump, got %+v", a)
	}
	offReport, err := Detect(traffic, days, Options{MinRelativeDeviation: Disabled})
	if err != nil {
		t.Fatal(err)
	}
	a, hit := find(offReport)
	if !hit {
		t.Fatal("MinRelativeDeviation: Disabled should report the quiet-hour deviation")
	}
	// It is reported for the reason under test: a score over the default
	// Threshold with a deviation under the default floor.
	if a.Score < def.Threshold || math.Abs(a.Observed-a.Expected) >= floor {
		t.Errorf("bump %+v is not between the filters (threshold %g, floor %.0f)", a, def.Threshold, floor)
	}
}

func TestDetectBinsUniqueAndSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	traffic := regularTraffic(rng, 0.05)
	report, err := Detect(traffic, days, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Bins) == 0 {
		t.Fatal("no bins reported")
	}
	day := days // bin of the daily component for a days-day window
	seenHalfDay := 0
	for i, b := range report.Bins {
		if i > 0 && report.Bins[i-1] >= b {
			t.Fatalf("bins not sorted+unique: %v", report.Bins)
		}
		if b == 2*day {
			seenHalfDay++
		}
	}
	// Pre-dedupe, the half-day principal bin was also emitted as the h=2
	// daily harmonic, so 2·day appeared twice in the model's bin list.
	if seenHalfDay != 1 {
		t.Errorf("half-day bin appears %d times in %v", seenHalfDay, report.Bins)
	}
}
