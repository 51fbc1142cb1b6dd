package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/poi"
)

// Config controls the synthetic city and trace generation. The zero value
// is not usable; call DefaultConfig or SmallConfig and adjust fields.
type Config struct {
	// Seed drives all pseudo-randomness; identical configs with identical
	// seeds produce identical cities and traces.
	Seed int64
	// Towers is the total number of cellular towers (the paper has 9,600).
	Towers int
	// Users is the number of subscribers used when emitting CDR logs
	// (the paper has 150,000).
	Users int
	// Days is the number of whole days of traffic to generate. The paper
	// collects 31 days and trims to 28 (four whole weeks).
	Days int
	// SlotMinutes is the aggregation granularity in minutes (paper: 10).
	SlotMinutes int
	// Start is the first instant of the trace (paper: Aug 1st 2014 00:00 local).
	Start time.Time
	// Shares maps each region to its fraction of towers. Missing entries
	// default to 0; the fractions are normalised.
	Shares map[Region]float64
	// AmplitudeSigma is the standard deviation of the log-normal per-tower
	// traffic amplitude (heterogeneity in subscriber counts).
	AmplitudeSigma float64
	// NoiseSigma is the relative standard deviation of multiplicative
	// per-slot traffic noise.
	NoiseSigma float64
	// MixJitter perturbs the functional mixture of comprehensive towers and
	// blends a small amount of foreign behaviour into single-function towers.
	MixJitter float64
	// PeakJitterMinutes shifts each tower's diurnal profile by a random
	// offset of at most this many minutes, modelling local schedule drift.
	PeakJitterMinutes float64
	// DuplicateFraction is the fraction of emitted CDR records that are
	// exact duplicates (the paper's "redundant logs").
	DuplicateFraction float64
	// ConflictFraction is the fraction of emitted CDR records that are
	// conflicting copies (same user, tower and interval, different bytes).
	ConflictFraction float64
	// POIScale scales the expected POI counts around each tower.
	POIScale float64
	// MeanBytesPerSlotPeak is the average bytes a typical tower carries in
	// a 10-minute slot at peak intensity; it anchors absolute volumes.
	MeanBytesPerSlotPeak float64
}

// DefaultConfig mirrors the paper's scale: 9,600 towers, 150,000 users and
// 31 days starting 2014-08-01. Generating CDR logs at this scale produces
// hundreds of millions of records; most experiments use the direct
// time-series path instead.
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		Towers:               9600,
		Users:                150000,
		Days:                 31,
		SlotMinutes:          10,
		Start:                time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC),
		Shares:               DefaultShares(),
		AmplitudeSigma:       0.6,
		NoiseSigma:           0.10,
		MixJitter:            0.05,
		PeakJitterMinutes:    15,
		DuplicateFraction:    0.03,
		ConflictFraction:     0.01,
		POIScale:             1.0,
		MeanBytesPerSlotPeak: 4e7,
	}
}

// SmallConfig is a laptop-friendly configuration used by tests and the
// quickstart example: a few hundred towers over four weeks.
func SmallConfig() Config {
	c := DefaultConfig()
	c.Towers = 400
	c.Users = 2000
	c.Days = 28
	return c
}

// Validate checks the configuration for usable values.
func (c Config) Validate() error {
	switch {
	case c.Towers <= 0:
		return fmt.Errorf("synth: Towers must be positive, got %d", c.Towers)
	case c.Users < 0:
		return fmt.Errorf("synth: Users must be non-negative, got %d", c.Users)
	case c.Days <= 0:
		return fmt.Errorf("synth: Days must be positive, got %d", c.Days)
	case c.SlotMinutes <= 0 || 1440%c.SlotMinutes != 0:
		return fmt.Errorf("synth: SlotMinutes must divide 1440, got %d", c.SlotMinutes)
	case c.Start.IsZero():
		return fmt.Errorf("synth: Start must be set")
	case c.AmplitudeSigma < 0 || c.NoiseSigma < 0 || c.MixJitter < 0:
		return fmt.Errorf("synth: noise parameters must be non-negative")
	case c.DuplicateFraction < 0 || c.DuplicateFraction >= 1:
		return fmt.Errorf("synth: DuplicateFraction must be in [0,1), got %g", c.DuplicateFraction)
	case c.ConflictFraction < 0 || c.ConflictFraction >= 1:
		return fmt.Errorf("synth: ConflictFraction must be in [0,1), got %g", c.ConflictFraction)
	case c.MeanBytesPerSlotPeak <= 0:
		return fmt.Errorf("synth: MeanBytesPerSlotPeak must be positive")
	}
	var total float64
	for _, s := range c.Shares {
		if s < 0 {
			return fmt.Errorf("synth: negative region share")
		}
		total += s
	}
	if total <= 0 {
		return fmt.Errorf("synth: region shares sum to zero")
	}
	return nil
}

// SlotsPerDay returns the number of aggregation slots in one day.
func (c Config) SlotsPerDay() int { return 1440 / c.SlotMinutes }

// TotalSlots returns the number of aggregation slots in the whole trace.
func (c Config) TotalSlots() int { return c.Days * c.SlotsPerDay() }

// Tower is a synthetic cellular tower.
type Tower struct {
	// ID is the base-station identifier, unique within the city.
	ID int
	// Address is the textual base-station address, written to towers.csv
	// beside Location.
	Address string
	// Location is the ground-truth position of the tower.
	Location geo.Point
	// Region is the ground-truth urban functional region of the tower.
	Region Region
	// Mix is the ground-truth mixture over the four primary regions that
	// drives this tower's traffic (a single-function tower has most of its
	// weight on its own region).
	Mix [4]float64
	// Amplitude is the per-tower traffic scale factor (relative to the
	// city-wide mean).
	Amplitude float64
	// peakShiftHours is the per-tower diurnal shift applied to the
	// archetype profile, in hours.
	peakShiftHours float64
}

// City is the generated urban environment.
type City struct {
	Config Config
	Towers []Tower
	POIs   []poi.POI
	Box    geo.BoundingBox

	rng *rand.Rand
}

// Shanghai-like city frame used by the generator.
var cityBox = geo.BoundingBox{MinLat: 31.00, MaxLat: 31.45, MinLon: 121.20, MaxLon: 121.80}

// zone is a disc-shaped district of a single functional region used to lay
// out towers spatially.
type zone struct {
	center    geo.Point
	radiusDeg float64
	region    Region
}

// cityZones lays out a ring-structured metropolis: office towers in the
// core business districts, entertainment and transport hot spots scattered
// around the core, comprehensive areas in the middle ring, and residential
// neighbourhoods toward the periphery.
func cityZones() []zone {
	return []zone{
		// Central business districts.
		{geo.Point{Lat: 31.235, Lon: 121.500}, 0.035, Office},
		{geo.Point{Lat: 31.220, Lon: 121.445}, 0.030, Office},
		{geo.Point{Lat: 31.205, Lon: 121.595}, 0.025, Office},
		// Entertainment hot spots (malls, parks).
		{geo.Point{Lat: 31.245, Lon: 121.465}, 0.018, Entertainment},
		{geo.Point{Lat: 31.150, Lon: 121.655}, 0.020, Entertainment},
		{geo.Point{Lat: 31.300, Lon: 121.520}, 0.016, Entertainment},
		// Transport hubs (railway stations, interchanges, airports).
		{geo.Point{Lat: 31.250, Lon: 121.455}, 0.010, Transport},
		{geo.Point{Lat: 31.195, Lon: 121.335}, 0.012, Transport},
		{geo.Point{Lat: 31.150, Lon: 121.805}, 0.014, Transport},
		{geo.Point{Lat: 31.400, Lon: 121.470}, 0.012, Transport},
		// Comprehensive middle ring.
		{geo.Point{Lat: 31.270, Lon: 121.470}, 0.060, Comprehensive},
		{geo.Point{Lat: 31.200, Lon: 121.520}, 0.055, Comprehensive},
		{geo.Point{Lat: 31.255, Lon: 121.560}, 0.050, Comprehensive},
		{geo.Point{Lat: 31.170, Lon: 121.430}, 0.055, Comprehensive},
		// Residential periphery.
		{geo.Point{Lat: 31.330, Lon: 121.370}, 0.070, Resident},
		{geo.Point{Lat: 31.360, Lon: 121.600}, 0.075, Resident},
		{geo.Point{Lat: 31.080, Lon: 121.380}, 0.070, Resident},
		{geo.Point{Lat: 31.060, Lon: 121.620}, 0.075, Resident},
		{geo.Point{Lat: 31.300, Lon: 121.720}, 0.065, Resident},
	}
}

var districtNames = []string{
	"Huangpu", "Xuhui", "Changning", "Jingan", "Putuo", "Hongkou", "Yangpu",
	"Minhang", "Baoshan", "Jiading", "Pudong", "Songjiang", "Qingpu", "Fengxian",
}

var roadNames = []string{
	"Century", "Nanjing", "Huaihai", "Zhongshan", "Yanan", "Beijing", "Fuxing",
	"Hengshan", "Wukang", "Julu", "Changle", "Xinhua", "Hongqiao", "Longyang",
	"Siping", "Wujiaochang", "Zhangyang", "Dapu", "Caoxi", "Tianyaoqiao",
}

// GenerateCity builds the synthetic city: towers with addresses,
// coordinates, ground-truth regions and mixtures, and POIs.
func GenerateCity(cfg Config) (*City, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	city := &City{
		Config: cfg,
		Box:    cityBox,
		rng:    rng,
	}

	counts, err := apportion(cfg.Towers, cfg.Shares)
	if err != nil {
		return nil, err
	}
	zonesByRegion := make(map[Region][]zone)
	for _, z := range cityZones() {
		zonesByRegion[z.region] = append(zonesByRegion[z.region], z)
	}

	id := 0
	for _, region := range Regions {
		n := counts[region]
		zones := zonesByRegion[region]
		for i := 0; i < n; i++ {
			var loc geo.Point
			if len(zones) > 0 {
				z := zones[rng.Intn(len(zones))]
				loc = randomInDisc(rng, z.center, z.radiusDeg)
			} else {
				loc = geo.Point{
					Lat: cityBox.MinLat + rng.Float64()*(cityBox.MaxLat-cityBox.MinLat),
					Lon: cityBox.MinLon + rng.Float64()*(cityBox.MaxLon-cityBox.MinLon),
				}
			}
			if !cityBox.Contains(loc) {
				loc = clampToBox(loc, cityBox)
			}
			city.Towers = append(city.Towers, Tower{
				ID:             id,
				Address:        towerAddress(rng, id),
				Location:       loc,
				Region:         region,
				Mix:            towerMix(rng, region, cfg.MixJitter),
				Amplitude:      math.Exp(rng.NormFloat64() * cfg.AmplitudeSigma),
				peakShiftHours: (rng.Float64()*2 - 1) * cfg.PeakJitterMinutes / 60,
			})
			id++
		}
	}

	city.POIs = generatePOIs(rng, city.Towers, cfg.POIScale)
	return city, nil
}

// apportion splits n towers across regions proportionally to the shares,
// assigning remainders to the largest fractional parts so the counts sum
// exactly to n.
func apportion(n int, shares map[Region]float64) (map[Region]int, error) {
	var total float64
	for _, s := range shares {
		total += s
	}
	if total <= 0 {
		return nil, fmt.Errorf("synth: region shares sum to zero")
	}
	type frac struct {
		region Region
		rem    float64
	}
	counts := make(map[Region]int, len(Regions))
	fracs := make([]frac, 0, len(Regions))
	assigned := 0
	for _, r := range Regions {
		exact := float64(n) * shares[r] / total
		whole := int(math.Floor(exact))
		counts[r] = whole
		assigned += whole
		fracs = append(fracs, frac{r, exact - float64(whole)})
	}
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].rem != fracs[j].rem {
			return fracs[i].rem > fracs[j].rem
		}
		return fracs[i].region < fracs[j].region
	})
	for i := 0; assigned < n; i, assigned = i+1, assigned+1 {
		counts[fracs[i%len(fracs)].region]++
	}
	return counts, nil
}

// towerMix returns the ground-truth functional mixture of a tower.
// Single-function towers put most weight on their own region with a small
// jitter blended in; comprehensive towers perturb DefaultComprehensiveMix.
func towerMix(rng *rand.Rand, region Region, jitter float64) [4]float64 {
	var mix [4]float64
	if region == Comprehensive {
		for i, w := range DefaultComprehensiveMix {
			mix[i] = math.Max(0.02, w+rng.NormFloat64()*jitter)
		}
	} else {
		idx := 0
		for i, r := range PrimaryRegions {
			if r == region {
				idx = i
				break
			}
		}
		for i := range mix {
			mix[i] = math.Abs(rng.NormFloat64()) * jitter * 0.5
		}
		mix[idx] = 1
	}
	var total float64
	for _, w := range mix {
		total += w
	}
	for i := range mix {
		mix[i] /= total
	}
	return mix
}

// randomInDisc draws a point uniformly from a disc of the given radius (in
// degrees) around the centre.
func randomInDisc(rng *rand.Rand, center geo.Point, radiusDeg float64) geo.Point {
	r := radiusDeg * math.Sqrt(rng.Float64())
	theta := rng.Float64() * 2 * math.Pi
	return geo.Point{
		Lat: center.Lat + r*math.Sin(theta),
		Lon: center.Lon + r*math.Cos(theta),
	}
}

func clampToBox(p geo.Point, b geo.BoundingBox) geo.Point {
	return geo.Point{
		Lat: math.Min(math.Max(p.Lat, b.MinLat), b.MaxLat),
		Lon: math.Min(math.Max(p.Lon, b.MinLon), b.MaxLon),
	}
}

func towerAddress(rng *rand.Rand, id int) string {
	return fmt.Sprintf("No.%d %s Road, %s District, Shanghai",
		100+rng.Intn(4000),
		roadNames[rng.Intn(len(roadNames))],
		districtNames[rng.Intn(len(districtNames))],
	) + fmt.Sprintf(" (BS-%05d)", id)
}

// generatePOIs scatters POIs of the four types around every tower: each
// type is present near a tower with a region-dependent probability
// (POIPresence), and when present its count is Poisson with a
// region-dependent mean (POIMeans). The presence step keeps POI types
// sparse at the 200 m radius, which is what gives the TF-IDF statistic of
// Section 5.3 its discriminating power.
func generatePOIs(rng *rand.Rand, towers []Tower, scale float64) []poi.POI {
	var out []poi.POI
	for _, t := range towers {
		means := POIMeans(t.Region, scale)
		presence := POIPresence(t.Region)
		for typeIdx, mean := range means {
			if rng.Float64() >= presence[typeIdx] {
				continue
			}
			n := poisson(rng, mean)
			for i := 0; i < n; i++ {
				// Scatter within ~180 m so the POIs fall inside the 200 m
				// counting radius used by the paper.
				loc := randomInDisc(rng, t.Location, 0.0016)
				out = append(out, poi.POI{
					Type:     poi.Type(typeIdx),
					Location: loc,
				})
			}
		}
	}
	return out
}

// poisson draws a Poisson-distributed count with the given mean using
// Knuth's algorithm for small means and a normal approximation for large
// ones.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(math.Round(v))
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
