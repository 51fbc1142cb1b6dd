package synth

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegionString(t *testing.T) {
	cases := map[Region]string{
		Resident:      "resident",
		Transport:     "transport",
		Office:        "office",
		Entertainment: "entertainment",
		Comprehensive: "comprehensive",
		Region(99):    "region(99)",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(r), got, want)
		}
	}
}

func TestDefaultSharesSumToOne(t *testing.T) {
	var total float64
	for _, s := range DefaultShares() {
		total += s
	}
	if math.Abs(total-1.0001) > 0.01 {
		t.Errorf("shares sum = %g, want ~1", total)
	}
}

func TestBumpProperties(t *testing.T) {
	// Peak value 1 at the centre, symmetric, decays away, wraps at 24h.
	if got := bump(12, 12, 2); math.Abs(got-1) > 1e-12 {
		t.Errorf("bump at centre = %g, want 1", got)
	}
	if math.Abs(bump(10, 12, 2)-bump(14, 12, 2)) > 1e-12 {
		t.Error("bump should be symmetric about its centre")
	}
	if bump(0, 12, 2) > bump(11, 12, 2) {
		t.Error("bump should decay away from the centre")
	}
	// Circular wrap: 23:30 is only one hour from 0:30.
	if got := bump(23.5, 0.5, 1); got < bump(3, 0.5, 1) {
		t.Errorf("bump should wrap around midnight: %g", got)
	}
}

func TestIntensityArchetypes(t *testing.T) {
	// Resident traffic peaks in the evening (~21:30) and keeps a
	// substantial night floor.
	eve, _ := Intensity(Resident, 21.5, false)
	noon, _ := Intensity(Resident, 12.5, false)
	night, _ := Intensity(Resident, 4.5, false)
	if !(eve > noon && noon > night) {
		t.Errorf("resident ordering wrong: eve=%g noon=%g night=%g", eve, noon, night)
	}
	if night < 0.05 {
		t.Errorf("resident night floor too low: %g", night)
	}

	// Office traffic peaks late morning on weekdays and has a low night floor.
	morning, _ := Intensity(Office, 10.5, false)
	nightOffice, _ := Intensity(Office, 4.0, false)
	if morning/nightOffice < 5 {
		t.Errorf("office peak-valley too small: %g / %g", morning, nightOffice)
	}

	// Transport has two rush-hour humps and an extremely low night floor.
	rushAM, _ := Intensity(Transport, 8, false)
	rushPM, _ := Intensity(Transport, 18, false)
	midday, _ := Intensity(Transport, 13, false)
	nightT, _ := Intensity(Transport, 3.5, false)
	if !(rushAM > midday && rushPM > midday) {
		t.Errorf("transport double hump missing: am=%g pm=%g midday=%g", rushAM, rushPM, midday)
	}
	if rushAM/nightT < 40 {
		t.Errorf("transport peak-valley ratio too small: %g", rushAM/nightT)
	}

	// Entertainment peaks in the evening on weekdays and at midday on weekends.
	wd18, _ := Intensity(Entertainment, 18, false)
	wd12, _ := Intensity(Entertainment, 12.5, false)
	we12, _ := Intensity(Entertainment, 12.5, true)
	we18, _ := Intensity(Entertainment, 18, true)
	if wd18 <= wd12 {
		t.Errorf("entertainment weekday peak should be in the evening: 18h=%g 12.5h=%g", wd18, wd12)
	}
	if we12 <= we18*0.9 {
		t.Errorf("entertainment weekend peak should move to midday: 12.5h=%g 18h=%g", we12, we18)
	}
}

func TestIntensityWeekdayWeekendAmounts(t *testing.T) {
	// Integrate the daily profiles; office and transport must carry much
	// more traffic on weekdays, resident and entertainment roughly equal.
	ratio := func(r Region) float64 {
		var wd, we float64
		for h := 0.0; h < 24; h += 0.1 {
			a, _ := Intensity(r, h, false)
			b, _ := Intensity(r, h, true)
			wd += a
			we += b
		}
		return wd / we
	}
	if r := ratio(Office); r < 1.4 || r > 2.4 {
		t.Errorf("office weekday/weekend ratio = %g, want ~1.8", r)
	}
	if r := ratio(Transport); r < 1.2 || r > 2.0 {
		t.Errorf("transport weekday/weekend ratio = %g, want ~1.5", r)
	}
	if r := ratio(Resident); r < 0.85 || r > 1.15 {
		t.Errorf("resident weekday/weekend ratio = %g, want ~1", r)
	}
	if r := ratio(Entertainment); r < 0.8 || r > 1.2 {
		t.Errorf("entertainment weekday/weekend ratio = %g, want ~1", r)
	}
}

func TestIntensityErrors(t *testing.T) {
	if _, err := Intensity(Comprehensive, 12, false); err == nil {
		t.Error("comprehensive region should require MixtureIntensity")
	}
	for _, r := range []Region{-1, 42} {
		if _, err := Intensity(r, 12, false); err == nil {
			t.Errorf("unknown region %d should fail", r)
		}
	}
}

// The archetypes are a fixed table: evaluating one builds nothing.
func TestIntensityZeroAlloc(t *testing.T) {
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		for _, r := range PrimaryRegions {
			v, _ := Intensity(r, 13.25, true)
			sink += v
		}
	}); n != 0 {
		t.Errorf("Intensity allocates %g times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		v, _ := MixtureIntensity(DefaultComprehensiveMix, 21.5, false)
		sink += v
	}); n != 0 {
		t.Errorf("MixtureIntensity allocates %g times per call", n)
	}
	_ = sink
}

func TestMixtureIntensity(t *testing.T) {
	// A pure mixture equals the underlying archetype.
	pure := [4]float64{0, 0, 1, 0}
	got, err := MixtureIntensity(pure, 10.5, false)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Intensity(Office, 10.5, false)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("pure mixture = %g, want %g", got, want)
	}
	// Weights are normalised: doubling all weights changes nothing.
	a, _ := MixtureIntensity([4]float64{1, 1, 1, 1}, 12, false)
	b, _ := MixtureIntensity([4]float64{2, 2, 2, 2}, 12, false)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("mixture should be scale-invariant: %g vs %g", a, b)
	}
	if _, err := MixtureIntensity([4]float64{0, 0, 0, 0}, 12, false); err == nil {
		t.Error("all-zero mixture should fail")
	}
	if _, err := MixtureIntensity([4]float64{-1, 1, 1, 1}, 12, false); err == nil {
		t.Error("negative mixture weight should fail")
	}
}

// Property: intensities are always non-negative and finite for every
// region, hour and day type.
func TestIntensityNonNegativeProperty(t *testing.T) {
	f := func(hourRaw uint16, weekend bool) bool {
		hour := float64(hourRaw%2400) / 100
		for _, r := range PrimaryRegions {
			v, err := Intensity(r, hour, weekend)
			if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		v, err := MixtureIntensity(DefaultComprehensiveMix, hour, weekend)
		return err == nil && v >= 0 && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPOIPresence(t *testing.T) {
	for _, r := range Regions {
		p := POIPresence(r)
		for i, v := range p {
			if v < 0 || v > 1 {
				t.Errorf("presence[%v][%d] = %g outside [0,1]", r, i, v)
			}
		}
	}
	// Each single-function region is the place where its own POI type is
	// most likely to be present, which keeps the IDF statistic meaningful.
	if POIPresence(Transport)[1] <= POIPresence(Office)[1] {
		t.Error("transport POIs should be most present in transport areas")
	}
	if POIPresence(Office)[2] <= POIPresence(Resident)[2] {
		t.Error("office POIs should be most present in office areas")
	}
	if POIPresence(Entertainment)[3] <= POIPresence(Comprehensive)[3] {
		t.Error("entertainment POIs should be most present in entertainment areas")
	}
	// Unknown regions have no POIs at all.
	if POIPresence(Region(99)) != [4]float64{} {
		t.Error("unknown region should have zero presence")
	}
}

func TestPOIMeans(t *testing.T) {
	// The dominant POI type of each single-function region must match the
	// region itself (this is what makes Table 3 recoverable).
	dominant := func(m [4]float64) int {
		best := 0
		for i := 1; i < 4; i++ {
			if m[i] > m[best] {
				best = i
			}
		}
		return best
	}
	if d := dominant(POIMeans(Resident, 1)); d != 0 {
		t.Errorf("resident region dominated by POI type %d", d)
	}
	if d := dominant(POIMeans(Office, 1)); d != 2 {
		t.Errorf("office region dominated by POI type %d", d)
	}
	if d := dominant(POIMeans(Entertainment, 1)); d != 3 {
		t.Errorf("entertainment region dominated by POI type %d", d)
	}
	// Transport POIs are rare everywhere but most common in transport areas.
	tShare := POIMeans(Transport, 1)[1]
	for _, r := range []Region{Resident, Office, Entertainment, Comprehensive} {
		if POIMeans(r, 1)[1] >= tShare {
			t.Errorf("transport POI mean in %v should be below transport area", r)
		}
	}
	// Scale multiplies all means; non-positive scale falls back to 1.
	base := POIMeans(Office, 1)
	double := POIMeans(Office, 2)
	for i := range base {
		if math.Abs(double[i]-2*base[i]) > 1e-9 {
			t.Errorf("scaling mismatch at %d", i)
		}
	}
	fallback := POIMeans(Office, -1)
	for i := range base {
		if fallback[i] != base[i] {
			t.Error("non-positive scale should fall back to 1")
		}
	}
}
