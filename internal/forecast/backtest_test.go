package forecast

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// digestSeries are the backtest inputs of TestBacktestMatchesParentDigest:
// noisy weekly traffic, spiky traffic whose band-limited reconstruction
// dips below zero (so the spectral models' clamp fires), a tower that
// goes dead in the evaluation week, and an all-zero tower.
func digestSeries() []linalg.Vector {
	rng := rand.New(rand.NewSource(85))
	spiky := make(linalg.Vector, totalDays*slotsPerDay)
	for i := range spiky {
		if rng.Float64() < 0.03 {
			spiky[i] = 500 * rng.Float64()
		}
	}
	dying := periodicSeries(rng, 0.2)
	for i := trainDays*slotsPerDay + 100; i < len(dying); i++ {
		dying[i] = 0
	}
	return []linalg.Vector{periodicSeries(rng, 0.05), periodicSeries(rng, 0.4), spiky, dying, make(linalg.Vector, totalDays*slotsPerDay)}
}

// TestBacktestMatchesParentDigest pins every Metrics field of every model's
// backtest on digestSeries, bit for bit, to the digest computed at commit
// f08e9d6, when Backtest still scored a Predict vector; it is never
// regenerated.
func TestBacktestMatchesParentDigest(t *testing.T) {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, series := range digestSeries() {
		for _, m := range allModels() {
			for _, train := range []int{7, 14, trainDays} {
				metrics, err := Backtest(m, series, totalDays, train, slotsPerDay)
				if err != nil {
					t.Fatalf("%s, %d training days: %v", m.Name(), train, err)
				}
				for _, v := range []float64{metrics.MAPE, metrics.RMSE, metrics.NRMSE, metrics.Coverage} {
					put(math.Float64bits(v))
				}
				put(uint64(metrics.Evaluable))
			}
		}
	}
	const want = "7591df8b63f6039cd131f7d4de3ca4323e839982bd43aa66af36d459ef8be841"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("backtest metrics digest = %s, want %s", got, want)
	}
}

// Backtest scores the horizon from the fitted model's period, so a model
// value refitted across a fleet of towers backtests each one without
// allocating: no prediction vector per tower.
func TestBacktestAllocatesNoPrediction(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled FFT plans at random")
	}
	series := periodicSeries(rand.New(rand.NewSource(86)), 0.05)
	for _, m := range []Model{&SpectralModel{Components: HarmonicsAndSidebands}, &SpectralModel{Components: Principal}} {
		if _, err := Backtest(m, series, totalDays, trainDays, slotsPerDay); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Backtest(m, series, totalDays, trainDays, slotsPerDay); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Backtest allocates %g times per refit, want 0", m.Name(), allocs)
		}
	}
}
