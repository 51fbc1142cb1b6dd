package synth

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/poi"
)

// tinyConfig is a very small city used to keep unit tests fast.
func tinyConfig() Config {
	c := DefaultConfig()
	c.Towers = 60
	c.Users = 200
	c.Days = 7
	return c
}

func TestConfigValidate(t *testing.T) {
	valid := tinyConfig()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero towers", func(c *Config) { c.Towers = 0 }},
		{"negative users", func(c *Config) { c.Users = -1 }},
		{"zero days", func(c *Config) { c.Days = 0 }},
		{"bad slot", func(c *Config) { c.SlotMinutes = 7 }},
		{"zero slot", func(c *Config) { c.SlotMinutes = 0 }},
		{"zero start", func(c *Config) { c.Start = time.Time{} }},
		{"negative noise", func(c *Config) { c.NoiseSigma = -0.1 }},
		{"duplicate fraction 1", func(c *Config) { c.DuplicateFraction = 1 }},
		{"conflict fraction negative", func(c *Config) { c.ConflictFraction = -0.1 }},
		{"zero byte anchor", func(c *Config) { c.MeanBytesPerSlotPeak = 0 }},
		{"negative share", func(c *Config) { c.Shares = map[Region]float64{Resident: -1} }},
		{"zero shares", func(c *Config) { c.Shares = map[Region]float64{} }},
	}
	for _, m := range mutations {
		cfg := tinyConfig()
		m.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

func TestConfigSlots(t *testing.T) {
	c := tinyConfig()
	if c.SlotsPerDay() != 144 {
		t.Errorf("SlotsPerDay = %d, want 144", c.SlotsPerDay())
	}
	if c.TotalSlots() != 7*144 {
		t.Errorf("TotalSlots = %d, want %d", c.TotalSlots(), 7*144)
	}
}

func TestApportion(t *testing.T) {
	counts, err := apportion(100, map[Region]float64{Resident: 0.5, Office: 0.25, Transport: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if counts[Resident] != 50 || counts[Office] != 25 || counts[Transport] != 25 {
		t.Errorf("apportion = %v", counts)
	}
	// Counts always sum to n even with awkward fractions.
	counts, err = apportion(7, DefaultShares())
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, n := range counts {
		total += n
	}
	if total != 7 {
		t.Errorf("apportion total = %d, want 7", total)
	}
	if _, err := apportion(10, map[Region]float64{}); err == nil {
		t.Error("empty shares should fail")
	}
}

func TestGenerateCityBasics(t *testing.T) {
	city, err := GenerateCity(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(city.Towers) != 60 {
		t.Fatalf("towers = %d, want 60", len(city.Towers))
	}
	ids := make(map[int]bool)
	for _, tw := range city.Towers {
		if ids[tw.ID] {
			t.Errorf("duplicate tower id %d", tw.ID)
		}
		ids[tw.ID] = true
		if !city.Box.Contains(tw.Location) {
			t.Errorf("tower %d outside city box: %v", tw.ID, tw.Location)
		}
		if !strings.Contains(tw.Address, "Shanghai") {
			t.Errorf("address %q missing city name", tw.Address)
		}
		if tw.Amplitude <= 0 {
			t.Errorf("tower %d non-positive amplitude", tw.ID)
		}
		var mixSum float64
		for _, w := range tw.Mix {
			if w < 0 {
				t.Errorf("tower %d negative mix weight", tw.ID)
			}
			mixSum += w
		}
		if math.Abs(mixSum-1) > 1e-9 {
			t.Errorf("tower %d mix sums to %g", tw.ID, mixSum)
		}
		if strings.TrimSpace(tw.Address) == "" || !tw.Location.Valid() {
			t.Errorf("tower %d: address %q at %v would not pass towers.csv's checks", tw.ID, tw.Address, tw.Location)
		}
	}
	if len(city.POIs) == 0 {
		t.Error("city should have POIs")
	}
	for _, p := range city.POIs {
		if int(p.Type) < 0 || int(p.Type) >= poi.NumTypes {
			t.Errorf("invalid POI type %d", p.Type)
		}
	}
}

// towersByRegion groups tower indices by their ground-truth region.
func towersByRegion(c *City) map[Region][]int {
	out := make(map[Region][]int, len(Regions))
	for i, t := range c.Towers {
		out[t.Region] = append(out[t.Region], i)
	}
	return out
}

func TestGenerateCityShares(t *testing.T) {
	cfg := tinyConfig()
	cfg.Towers = 1000
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byRegion := towersByRegion(city)
	var total int
	for _, idxs := range byRegion {
		total += len(idxs)
	}
	if total != 1000 {
		t.Fatalf("region groups cover %d towers, want 1000", total)
	}
	for region, share := range DefaultShares() {
		got := float64(len(byRegion[region])) / 1000
		if math.Abs(got-share) > 0.01 {
			t.Errorf("region %v share = %g, want %g", region, got, share)
		}
	}
}

func TestGenerateCityDeterminism(t *testing.T) {
	a, err := GenerateCity(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCity(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Towers) != len(b.Towers) || len(a.POIs) != len(b.POIs) {
		t.Fatal("same seed produced different city sizes")
	}
	for i := range a.Towers {
		if a.Towers[i].Location != b.Towers[i].Location || a.Towers[i].Region != b.Towers[i].Region {
			t.Fatalf("tower %d differs between identical seeds", i)
		}
	}
	cfg := tinyConfig()
	cfg.Seed = 999
	c, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Towers {
		if a.Towers[i].Location != c.Towers[i].Location {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical tower layouts")
	}
}

func TestGenerateCityInvalidConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.Towers = -1
	if _, err := GenerateCity(cfg); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestPOIDistributionByRegion(t *testing.T) {
	cfg := tinyConfig()
	cfg.Towers = 300
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := poi.NewCounter(city.POIs, poi.DefaultRadiusMeters)
	if err != nil {
		t.Fatal(err)
	}
	// Average POI counts per region: office towers should see far more
	// office POIs than resident towers, and vice versa.
	sums := make(map[Region]poi.Counts)
	ns := make(map[Region]int)
	for _, tw := range city.Towers {
		c := counter.CountWithin(tw.Location, poi.DefaultRadiusMeters)
		s := sums[tw.Region]
		for i := range s {
			s[i] += c[i]
		}
		sums[tw.Region] = s
		ns[tw.Region]++
	}
	officeAvg := sums[Office][int(poi.Office)] / float64(ns[Office])
	residentOfficeAvg := sums[Resident][int(poi.Office)] / float64(ns[Resident])
	if officeAvg <= residentOfficeAvg {
		t.Errorf("office towers should see more office POIs (%g) than resident towers (%g)", officeAvg, residentOfficeAvg)
	}
	residentAvg := sums[Resident][int(poi.Resident)] / float64(ns[Resident])
	officeResidentAvg := sums[Office][int(poi.Resident)] / float64(ns[Office])
	if residentAvg <= officeResidentAvg {
		t.Errorf("resident towers should see more resident POIs (%g) than office towers (%g)", residentAvg, officeResidentAvg)
	}
}

func TestPoissonDraws(t *testing.T) {
	rngCity, err := GenerateCity(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	_ = rngCity
	r := newTestRand()
	if poisson(r, 0) != 0 {
		t.Error("poisson(0) should be 0")
	}
	if poisson(r, -3) != 0 {
		t.Error("poisson(negative) should be 0")
	}
	// Large-mean draws should land near the mean.
	var sum float64
	const draws = 200
	for i := 0; i < draws; i++ {
		sum += float64(poisson(r, 100))
	}
	avg := sum / draws
	if avg < 85 || avg > 115 {
		t.Errorf("poisson(100) average = %g, want ~100", avg)
	}
	// Small-mean draws too.
	sum = 0
	for i := 0; i < 2000; i++ {
		sum += float64(poisson(r, 2))
	}
	avg = sum / 2000
	if avg < 1.7 || avg > 2.3 {
		t.Errorf("poisson(2) average = %g, want ~2", avg)
	}
}
