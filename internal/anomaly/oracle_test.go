package anomaly

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/dsp"
	"repro/internal/linalg"
)

// expectedOf rebuilds the expected traffic a report's model stands for: the
// band-limited reconstruction of traffic from report.Bins, clamped at zero
// — what Report.Expected held before the sweep stopped publishing it.
func expectedOf(t testing.TB, traffic linalg.Vector, report *Report) linalg.Vector {
	t.Helper()
	plan, err := dsp.AcquirePlan(len(traffic))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Release()
	expected, _, err := plan.Reconstruct(traffic, report.Bins...)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range expected {
		if v < 0 {
			expected[i] = 0
		}
	}
	return expected
}

// medianSortOracle is the clone-and-sort median linalg.Quantile(v, 0.5) was
// when robustScale called it twice per tower.
func medianSortOracle(v linalg.Vector) float64 {
	sorted := v.Clone()
	sort.Float64s(sorted)
	pos := 0.5 * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// robustScaleOracle is the sort-based robust scale the in-place selection
// replaced: two full sorts and three fresh vectors per call.
func robustScaleOracle(v linalg.Vector) float64 {
	if len(v) == 0 {
		return 0
	}
	med := medianSortOracle(v)
	abs := make(linalg.Vector, len(v))
	for i, x := range v {
		abs[i] = math.Abs(x - med)
	}
	return 1.4826 * medianSortOracle(abs)
}

// checkRobustScale compares robustScale with the oracle on v and asserts v
// itself is left alone.
func checkRobustScale(t *testing.T, name string, v linalg.Vector) {
	t.Helper()
	before := v.Clone()
	got, want := robustScale(v, make(linalg.Vector, len(v))), robustScaleOracle(v)
	if got != want {
		t.Errorf("%s (len %d): robustScale = %v, sort-based oracle %v", name, len(v), got, want)
	}
	if !reflect.DeepEqual(v, before) {
		t.Errorf("%s (len %d): robustScale modified its input", name, len(v))
	}
}

// The selection-based robust scale picks the same order statistics as the
// sort-based one, so the two are equal — not merely close — on every
// input: short vectors with heavy ties, constant vectors, and the relative
// residuals of two-week towers.
func TestRobustScaleMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for n := 1; n <= 300; n++ {
		ties := make(linalg.Vector, n)
		smooth := make(linalg.Vector, n)
		constant := make(linalg.Vector, n)
		for i := range ties {
			ties[i] = float64(rng.Intn(5)) - 2
			smooth[i] = rng.NormFloat64()
			constant[i] = 0.25
		}
		checkRobustScale(t, "ties", ties)
		checkRobustScale(t, "smooth", smooth)
		checkRobustScale(t, "constant", constant)
	}
	for tower := 0; tower < 20; tower++ {
		traffic := regularTraffic(rng, 0.02+0.02*float64(tower))
		if tower%5 == 4 {
			// A tower that is dark half the time: long runs of exact ties.
			for i := range traffic {
				if (i/slotsPerDay)%2 == 0 {
					traffic[i] = 0
				}
			}
		}
		report, err := Detect(traffic, days, Options{})
		if err != nil {
			t.Fatal(err)
		}
		expected := expectedOf(t, traffic, report)
		relative := make(linalg.Vector, len(traffic))
		residual := make(linalg.Vector, len(traffic))
		for i := range relative {
			residual[i] = traffic[i] - expected[i]
			relative[i] = residual[i] / math.Max(expected[i], 1)
		}
		checkRobustScale(t, "tower", relative)
		checkRobustScale(t, "residual", residual)
	}
}

// mixedTowers is a fleet with two vector lengths (144 and 72 slots per
// day), so a sweep worker has to swap its plan and scratch mid-run, plus a
// dead tower whose scale is zero.
func mixedTowers(rng *rand.Rand, n int) []linalg.Vector {
	towers := make([]linalg.Vector, n)
	for i := range towers {
		full := regularTraffic(rng, 0.05)
		switch i % 4 {
		case 1:
			half := make(linalg.Vector, len(full)/2)
			for j := range half {
				half[j] = full[2*j] + full[2*j+1]
			}
			towers[i] = half
		case 3:
			towers[i] = make(linalg.Vector, len(full))
		default:
			full[(i*37)%len(full)] *= 9 // something to flag
			towers[i] = full
		}
	}
	return towers
}

// Every report depends on its own row alone: the pooled sweep is deep-equal
// to a serial Detect per tower for any worker count, and so is the
// signature-stable DetectAll form.
func TestDetectAllContextWorkersMatchSerialDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	towers := mixedTowers(rng, 23)
	want := make([]*Report, len(towers))
	for i, v := range towers {
		r, err := Detect(v, days, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0), 0} {
		got, err := DetectAllContext(t.Context(), towers, days, Options{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: reports differ from serial Detect", workers)
		}
	}
	got, err := DetectAll(towers, days, Options{})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("DetectAll: reports differ from serial Detect (err %v)", err)
	}
}
