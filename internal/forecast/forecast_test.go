package forecast

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

const (
	slotsPerDay = 144
	totalDays   = 28
	trainDays   = 21
)

// periodicSeries builds a noisy but strictly weekly-periodic traffic series:
// a daily double hump whose amplitude drops at the weekend.
func periodicSeries(rng *rand.Rand, noise float64) linalg.Vector {
	out := make(linalg.Vector, totalDays*slotsPerDay)
	for i := range out {
		day := i / slotsPerDay
		slot := i % slotsPerDay
		hour := float64(slot) / 6
		weekend := day%7 >= 5
		v := 20 + 80*math.Exp(-0.5*math.Pow((hour-9)/1.5, 2)) + 60*math.Exp(-0.5*math.Pow((hour-18)/2, 2))
		if weekend {
			v *= 0.6
		}
		if noise > 0 {
			v *= math.Exp(rng.NormFloat64() * noise)
		}
		out[i] = v
	}
	return out
}

func allModels() []Model {
	return []Model{
		&SpectralModel{Components: Principal},
		&SpectralModel{Components: Harmonics},
		&SpectralModel{Components: HarmonicsAndSidebands},
		&LastWeekModel{},
		&SlotOfWeekMeanModel{},
	}
}

func TestModelsPredictPeriodicSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	series := periodicSeries(rng, 0.05)
	for _, m := range allModels() {
		metrics, err := Backtest(m, series, totalDays, trainDays, slotsPerDay)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if metrics.NRMSE > 0.6 {
			t.Errorf("%s: NRMSE = %g, want < 0.6", m.Name(), metrics.NRMSE)
		}
		if metrics.MAPE <= 0 || metrics.RMSE <= 0 {
			t.Errorf("%s: degenerate metrics %+v", m.Name(), metrics)
		}
		if m.StateSize() <= 0 {
			t.Errorf("%s: StateSize = %d after fitting", m.Name(), m.StateSize())
		}
	}
}

func TestSidebandsBeatPrincipalOnWeekendModulation(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	series := periodicSeries(rng, 0.03)
	principal := &SpectralModel{Components: Principal}
	sidebands := &SpectralModel{Components: HarmonicsAndSidebands}
	mp, err := Backtest(principal, series, totalDays, trainDays, slotsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Backtest(sidebands, series, totalDays, trainDays, slotsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	if ms.RMSE >= mp.RMSE {
		t.Errorf("sidebands RMSE (%g) should beat principal-3 (%g) on weekday/weekend-modulated traffic", ms.RMSE, mp.RMSE)
	}
	// And the compact models stay far below the replay's state size.
	replay := &LastWeekModel{}
	if _, err := Backtest(replay, series, totalDays, trainDays, slotsPerDay); err != nil {
		t.Fatal(err)
	}
	if sidebands.StateSize() >= replay.StateSize()/10 {
		t.Errorf("sideband model state (%d) should be at least 10x smaller than replay (%d)", sidebands.StateSize(), replay.StateSize())
	}
	if principal.StateSize() >= sidebands.StateSize() {
		t.Errorf("principal-3 state (%d) should be below sideband state (%d)", principal.StateSize(), sidebands.StateSize())
	}
}

func TestSpectralModelExactOnPureComponents(t *testing.T) {
	// A signal containing only the three principal components is predicted
	// exactly (up to the non-negativity clamp, which does not trigger here).
	n := trainDays * slotsPerDay
	train := make(linalg.Vector, n)
	week, day := trainDays/7, trainDays
	for i := range train {
		ti := float64(i)
		train[i] = 100 +
			20*math.Cos(2*math.Pi*float64(week)*ti/float64(n)) +
			50*math.Cos(2*math.Pi*float64(day)*ti/float64(n)+1) +
			10*math.Cos(2*math.Pi*float64(2*day)*ti/float64(n))
	}
	m := &SpectralModel{Components: Principal}
	if err := m.Fit(train, trainDays, slotsPerDay); err != nil {
		t.Fatal(err)
	}
	pred, err := predict(m, 7*slotsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pred); i += 97 {
		if math.Abs(pred[i]-train[i]) > 1e-6 {
			t.Fatalf("pred[%d] = %g, want %g", i, pred[i], train[i])
		}
	}
	if m.StateSize() != 7 {
		t.Errorf("StateSize = %d, want 7 (3 bins × 2 + DC)", m.StateSize())
	}
}

func TestModelErrors(t *testing.T) {
	good := make(linalg.Vector, 7*slotsPerDay)
	for i := range good {
		good[i] = float64(i % 100)
	}
	for _, m := range allModels() {
		if _, err := predict(m, 10); !errors.Is(err, ErrNotFitted) {
			t.Errorf("%s: predict before fit: %v", m.Name(), err)
		}
		if err := m.Fit(good[:10], 7, slotsPerDay); !errors.Is(err, ErrBadTraining) {
			t.Errorf("%s: bad training length: %v", m.Name(), err)
		}
		if err := m.Fit(good, 0, slotsPerDay); !errors.Is(err, ErrBadTraining) {
			t.Errorf("%s: zero days: %v", m.Name(), err)
		}
		if err := m.Fit(good, 7, slotsPerDay); err != nil {
			t.Fatalf("%s: fit: %v", m.Name(), err)
		}
		if _, err := predict(m, 0); !errors.Is(err, ErrBadHorizon) {
			t.Errorf("%s: zero horizon: %v", m.Name(), err)
		}
	}
	// NaN training data is rejected.
	bad := good.Clone()
	bad[5] = math.NaN()
	if err := (&SpectralModel{}).Fit(bad, 7, slotsPerDay); !errors.Is(err, ErrBadTraining) {
		t.Errorf("NaN training: %v", err)
	}
	// Replay and slot-of-week models need a whole week.
	short := make(linalg.Vector, 3*slotsPerDay)
	if err := (&LastWeekModel{}).Fit(short, 3, slotsPerDay); !errors.Is(err, ErrBadTraining) {
		t.Errorf("short replay training: %v", err)
	}
	if err := (&SlotOfWeekMeanModel{}).Fit(short, 3, slotsPerDay); !errors.Is(err, ErrBadTraining) {
		t.Errorf("short slot-of-week training: %v", err)
	}
	// Unknown component set.
	if err := (&SpectralModel{Components: ComponentSet(42)}).Fit(good, 7, slotsPerDay); err == nil {
		t.Error("unknown component set should fail")
	}
}

func TestEvaluate(t *testing.T) {
	actual := linalg.Vector{100, 200, 0, 100}
	predicted := linalg.Vector{110, 180, 10, 100}
	m, err := evaluate(actual, predicted)
	if err != nil {
		t.Fatal(err)
	}
	// MAPE over slots above 10% of mean (mean = 100, threshold 10):
	// |10|/100, |20|/200, |0|/100 → (0.1+0.1+0)/3.
	if math.Abs(m.MAPE-0.2/3) > 1e-9 {
		t.Errorf("MAPE = %g, want %g", m.MAPE, 0.2/3)
	}
	wantRMSE := math.Sqrt((100 + 400 + 100 + 0) / 4)
	if math.Abs(m.RMSE-wantRMSE) > 1e-9 {
		t.Errorf("RMSE = %g, want %g", m.RMSE, wantRMSE)
	}
	if math.Abs(m.NRMSE-wantRMSE/100) > 1e-9 {
		t.Errorf("NRMSE = %g", m.NRMSE)
	}
	if _, err := evaluate(nil, predicted); err == nil {
		t.Error("empty evaluation should fail")
	}
	if _, err := evaluate(actual, nil); !errors.Is(err, ErrNotFitted) {
		t.Errorf("empty forecast period: %v", err)
	}
	// A period shorter than the window repeats: the forecast 110 180 is
	// scored as 110 180 110 180.
	m, err = evaluate(actual, predicted[:2])
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Sqrt((100 + 400 + 110*110 + 80*80) / 4); math.Abs(m.RMSE-want) > 1e-9 {
		t.Errorf("repeated period: RMSE = %g, want %g", m.RMSE, want)
	}
}

func TestBacktestErrors(t *testing.T) {
	series := periodicSeries(rand.New(rand.NewSource(83)), 0)
	m := &SpectralModel{Components: Principal}
	if _, err := Backtest(m, series, totalDays, 0, slotsPerDay); !errors.Is(err, ErrBadTraining) {
		t.Errorf("zero train days: %v", err)
	}
	if _, err := Backtest(m, series, totalDays, totalDays, slotsPerDay); !errors.Is(err, ErrBadTraining) {
		t.Errorf("train == total: %v", err)
	}
	if _, err := Backtest(m, series[:10], totalDays, trainDays, slotsPerDay); !errors.Is(err, ErrBadTraining) {
		t.Errorf("short series: %v", err)
	}
}

func TestComponentSetString(t *testing.T) {
	if Principal.String() != "principal-3" || Harmonics.String() != "harmonics" ||
		HarmonicsAndSidebands.String() != "harmonics+sidebands" {
		t.Error("component set names wrong")
	}
	if ComponentSet(9).String() != "componentset(9)" {
		t.Error("unknown component set name wrong")
	}
}

func BenchmarkSpectralBacktest(b *testing.B) {
	series := periodicSeries(rand.New(rand.NewSource(84)), 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &SpectralModel{Components: HarmonicsAndSidebands}
		if _, err := Backtest(m, series, totalDays, trainDays, slotsPerDay); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEvaluateZeroWindowIsNotPerfect(t *testing.T) {
	// A dead tower: the actual window is all zeros. MAPE and NRMSE
	// degenerate to 0, which pre-coverage read as a perfect forecast in
	// summaries; Evaluable/Coverage must expose that nothing was scored.
	actual := make(linalg.Vector, 2*slotsPerDay)
	predicted := make(linalg.Vector, 2*slotsPerDay)
	for i := range predicted {
		predicted[i] = 100 // wildly wrong forecast for a dead tower
	}
	m, err := evaluate(actual, predicted)
	if err != nil {
		t.Fatal(err)
	}
	if m.MAPE != 0 || m.NRMSE != 0 {
		t.Errorf("degenerate relative errors changed: MAPE=%g NRMSE=%g", m.MAPE, m.NRMSE)
	}
	if m.RMSE != 100 {
		t.Errorf("RMSE = %g, want 100", m.RMSE)
	}
	if m.Evaluable != 0 || m.Coverage != 0 {
		t.Errorf("zero window: Evaluable=%d Coverage=%g, want 0/0", m.Evaluable, m.Coverage)
	}

	// A live window reports full coverage for uniformly non-trivial
	// traffic, so consumers can tell the two apart.
	live := make(linalg.Vector, 2*slotsPerDay)
	for i := range live {
		live[i] = 50 + float64(i%7)
	}
	m, err = evaluate(live, live)
	if err != nil {
		t.Fatal(err)
	}
	if m.Evaluable != len(live) || m.Coverage != 1 {
		t.Errorf("live window: Evaluable=%d Coverage=%g, want %d/1", m.Evaluable, m.Coverage, len(live))
	}
	if m.MAPE != 0 || m.RMSE != 0 {
		t.Errorf("exact forecast: MAPE=%g RMSE=%g", m.MAPE, m.RMSE)
	}
}
