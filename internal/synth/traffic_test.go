package synth

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// newTestRand returns a deterministic rand source for helper tests.
func newTestRand() *rand.Rand { return rand.New(rand.NewSource(77)) }

func TestGenerateSeriesShape(t *testing.T) {
	city, err := GenerateCity(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(city.Towers) {
		t.Fatalf("series = %d, want %d", len(series), len(city.Towers))
	}
	wantLen := city.Config.TotalSlots()
	for i, s := range series {
		if len(s.Bytes) != wantLen {
			t.Fatalf("series %d length = %d, want %d", i, len(s.Bytes), wantLen)
		}
		if s.TowerID != city.Towers[i].ID {
			t.Errorf("series %d tower id mismatch", i)
		}
		for j, v := range s.Bytes {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("series %d slot %d invalid value %g", i, j, v)
			}
		}
	}
}

func TestGenerateTowerSeriesDeterministicAndIndependent(t *testing.T) {
	city, err := GenerateCity(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := city.GenerateTowerSeries(3)
	if err != nil {
		t.Fatal(err)
	}
	// Generating other towers in between must not change tower 3.
	if _, err := city.GenerateTowerSeries(5); err != nil {
		t.Fatal(err)
	}
	b, err := city.GenerateTowerSeries(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Bytes {
		if a.Bytes[i] != b.Bytes[i] {
			t.Fatalf("tower series not deterministic at slot %d", i)
		}
	}
	if _, err := city.GenerateTowerSeries(-1); err == nil {
		t.Error("negative index should fail")
	}
	if _, err := city.GenerateTowerSeries(len(city.Towers)); err == nil {
		t.Error("out-of-range index should fail")
	}
}

func TestSeriesFollowsArchetype(t *testing.T) {
	// An office tower's weekday traffic should peak in working hours and be
	// low at night; a resident tower should peak in the evening.
	cfg := tinyConfig()
	cfg.NoiseSigma = 0.01
	cfg.PeakJitterMinutes = 0
	cfg.Days = 7
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byRegion := towersByRegion(city)
	perDay := cfg.SlotsPerDay()

	profileOf := func(towerIdx int) []float64 {
		s, err := city.GenerateTowerSeries(towerIdx)
		if err != nil {
			t.Fatal(err)
		}
		// Average the first 5 days (weekdays for a Friday start may vary;
		// use all days — shape differences survive averaging).
		prof := make([]float64, perDay)
		for i, v := range s.Bytes {
			prof[i%perDay] += v
		}
		return prof
	}
	slotOf := func(hour float64) int { return int(hour * 60 / float64(cfg.SlotMinutes)) }

	if idxs := byRegion[Office]; len(idxs) > 0 {
		p := profileOf(idxs[0])
		if p[slotOf(10.5)] <= p[slotOf(4)]*3 {
			t.Errorf("office tower should be much busier at 10:30 than 04:00: %g vs %g", p[slotOf(10.5)], p[slotOf(4)])
		}
	}
	if idxs := byRegion[Resident]; len(idxs) > 0 {
		p := profileOf(idxs[0])
		if p[slotOf(21.5)] <= p[slotOf(10.5)] {
			t.Errorf("resident tower should peak in the evening: 21:30=%g 10:30=%g", p[slotOf(21.5)], p[slotOf(10.5)])
		}
	}
	if idxs := byRegion[Transport]; len(idxs) > 0 {
		p := profileOf(idxs[0])
		if !(p[slotOf(8)] > p[slotOf(13)] && p[slotOf(18)] > p[slotOf(13)]) {
			t.Errorf("transport tower should have two rush-hour humps: 8h=%g 13h=%g 18h=%g", p[slotOf(8)], p[slotOf(13)], p[slotOf(18)])
		}
	}
}

func TestSlotStart(t *testing.T) {
	city, err := GenerateCity(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := city.SlotStart(0); !got.Equal(city.Config.Start) {
		t.Errorf("SlotStart(0) = %v", got)
	}
	if got := city.SlotStart(6); !got.Equal(city.Config.Start.Add(time.Hour)) {
		t.Errorf("SlotStart(6) = %v, want start+1h", got)
	}
}

func TestIsWeekend(t *testing.T) {
	sat := time.Date(2014, 8, 2, 0, 0, 0, 0, time.UTC)
	sun := time.Date(2014, 8, 3, 0, 0, 0, 0, time.UTC)
	mon := time.Date(2014, 8, 4, 0, 0, 0, 0, time.UTC)
	if !isWeekend(sat) || !isWeekend(sun) {
		t.Error("Saturday/Sunday should be weekend")
	}
	if isWeekend(mon) {
		t.Error("Monday should not be weekend")
	}
}

func BenchmarkGenerateTowerSeries28Days(b *testing.B) {
	cfg := tinyConfig()
	cfg.Days = 28
	city, err := GenerateCity(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := city.GenerateTowerSeries(i % len(city.Towers)); err != nil {
			b.Fatal(err)
		}
	}
}
