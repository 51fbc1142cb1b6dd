// Package synth generates the synthetic urban environment and cellular
// trace that stand in for the paper's proprietary ISP dataset (9,600 towers
// and 150,000 subscribers in Shanghai, August 2014).
//
// The generator produces:
//
//   - a city with five kinds of urban functional regions (resident,
//     transport, office, entertainment, comprehensive) laid out spatially
//     like a ring-structured metropolis (business core, entertainment and
//     transport hot spots, residential periphery);
//   - cellular towers with addresses, coordinates and a ground-truth
//     functional region;
//   - points of interest (POI) of four types scattered with densities that
//     depend on the local functional region;
//   - per-tower traffic time series at 10-minute granularity whose diurnal
//     and weekly shapes follow the archetypes reported in the paper
//     (two evening peaks for residences, a single midday peak for offices,
//     a double rush-hour hump for transport, evening/weekend peaks for
//     entertainment, and mixtures for comprehensive areas);
//   - CDR-style connection logs derived from those series, including the
//     duplicated and conflicting records that the paper's preprocessing
//     stage has to clean.
//
// Because every tower carries its ground-truth region, downstream analyses
// can be validated quantitatively instead of by manual map inspection.
package synth

import (
	"fmt"
	"math"

	"repro/internal/urban"
)

// Region aliases the shared urban functional region type so that code
// working with the generator can use synth.Resident etc. directly.
type Region = urban.Region

// The five functional regions, re-exported from package urban.
const (
	Resident      = urban.Resident
	Transport     = urban.Transport
	Office        = urban.Office
	Entertainment = urban.Entertainment
	Comprehensive = urban.Comprehensive
)

// Regions lists all regions in canonical order.
var Regions = urban.Regions

// PrimaryRegions lists the four single-function regions that act as the
// primary components of the frequency-domain decomposition (Section 5.3).
var PrimaryRegions = urban.PrimaryRegions

// DefaultShares returns the fraction of towers per region reported in
// Table 1 of the paper.
func DefaultShares() map[Region]float64 { return urban.DefaultShares() }

// bump is a circular Gaussian bump on the 24-hour clock centred at c hours
// with width w hours, evaluated at hour t ∈ [0, 24).
func bump(t, c, w float64) float64 {
	d := math.Mod(t-c+36, 24) - 12 // signed circular difference in (-12, 12]
	return math.Exp(-0.5 * (d / w) * (d / w))
}

// profile is a diurnal traffic intensity shape: a non-negative function of
// the hour of day in [0, 24).
type profile func(hour float64) float64

// regionShape holds the weekday and weekend diurnal intensity profiles of a
// functional region together with the weekend amplitude scale that controls
// the weekday/weekend traffic-amount ratio (Figure 10a).
type regionShape struct {
	weekday      profile
	weekend      profile
	weekendScale float64
}

// shapes holds the archetypal traffic shapes of the four single-function
// regions, indexed by region. The parameters are calibrated so the derived
// statistics land in the neighbourhood of the paper's Tables 4 and 5:
//
//   - resident: evening peak ~21:30, high night floor, weekday ≈ weekend,
//     peak-valley ratio ≈ 9;
//   - transport: rush-hour peaks at 8:00 and 18:00, near-zero night floor,
//     weekday/weekend amount ratio ≈ 1.5, peak-valley ratio > 100;
//   - office: single late-morning peak (~10:30 weekday, ~12:00 weekend),
//     weekday/weekend amount ratio ≈ 1.8, peak-valley ratio ≈ 20;
//   - entertainment: evening peak (18:00) on weekdays, midday peak (12:30)
//     on weekends, peak-valley ratio ≈ 32.
var shapes = [...]regionShape{
	Resident: {
		weekday: func(t float64) float64 {
			return 0.11 + 0.28*bump(t, 12.5, 2.0) + 0.90*bump(t, 21.5, 2.4) + 0.18*bump(t, 8.0, 1.6)
		},
		weekend: func(t float64) float64 {
			return 0.11 + 0.33*bump(t, 12.5, 2.2) + 0.92*bump(t, 21.5, 2.5) + 0.12*bump(t, 9.0, 1.8)
		},
		weekendScale: 1.0,
	},
	Transport: {
		weekday: func(t float64) float64 {
			return 0.008 + 1.00*bump(t, 8.0, 1.1) + 0.92*bump(t, 18.0, 1.3) + 0.30*bump(t, 12.5, 2.2)
		},
		weekend: func(t float64) float64 {
			return 0.008 + 0.45*bump(t, 9.5, 1.8) + 0.85*bump(t, 18.0, 2.0) + 0.30*bump(t, 13.0, 2.4)
		},
		weekendScale: 0.62,
	},
	Office: {
		weekday: func(t float64) float64 {
			return 0.045 + 1.00*bump(t, 10.5, 2.2) + 0.85*bump(t, 14.5, 2.6) + 0.25*bump(t, 19.0, 1.8)
		},
		weekend: func(t float64) float64 {
			return 0.055 + 0.80*bump(t, 12.0, 2.6) + 0.45*bump(t, 15.5, 2.6)
		},
		weekendScale: 0.78,
	},
	Entertainment: {
		weekday: func(t float64) float64 {
			return 0.030 + 0.95*bump(t, 18.0, 2.2) + 0.55*bump(t, 21.0, 1.8) + 0.30*bump(t, 12.5, 1.8)
		},
		weekend: func(t float64) float64 {
			return 0.030 + 0.95*bump(t, 12.5, 2.4) + 0.75*bump(t, 18.0, 2.6) + 0.40*bump(t, 21.0, 1.8)
		},
		weekendScale: 0.75,
	},
}

// Intensity returns the archetypal traffic intensity (arbitrary units in
// roughly [0, 1.3]) for a single-function region at the given hour of day.
// Comprehensive regions have no archetype of their own; their intensity is
// a convex mixture of the four primary regions (see MixtureIntensity).
func Intensity(r Region, hour float64, weekend bool) (float64, error) {
	if r == Comprehensive {
		return 0, fmt.Errorf("synth: comprehensive region has no single archetype; use MixtureIntensity")
	}
	if r < 0 || int(r) >= len(shapes) {
		return 0, fmt.Errorf("synth: unknown region %v", r)
	}
	s := &shapes[r]
	hour = math.Mod(math.Mod(hour, 24)+24, 24)
	if weekend {
		return s.weekendScale * s.weekend(hour), nil
	}
	return s.weekday(hour), nil
}

// MixtureIntensity returns the intensity of a convex mixture of the four
// primary regions with the given weights (resident, transport, office,
// entertainment order). Weights are normalised internally; they need not
// sum to one but must not all be zero.
func MixtureIntensity(weights [4]float64, hour float64, weekend bool) (float64, error) {
	var total float64
	for _, w := range weights {
		if w < 0 {
			return 0, fmt.Errorf("synth: negative mixture weight %g", w)
		}
		total += w
	}
	if total == 0 {
		return 0, fmt.Errorf("synth: all mixture weights are zero")
	}
	var out float64
	for i, r := range PrimaryRegions {
		if weights[i] == 0 {
			continue
		}
		v, err := Intensity(r, hour, weekend)
		if err != nil {
			return 0, err
		}
		out += weights[i] / total * v
	}
	return out, nil
}

// DefaultComprehensiveMix is the average mixture of urban functions in a
// comprehensive area; individual comprehensive towers perturb it.
var DefaultComprehensiveMix = [4]float64{0.35, 0.10, 0.30, 0.25}

// POIMeans returns the expected POI counts of each type within 200 m of a
// tower in the given region conditional on the type being present there at
// all, loosely following the magnitudes of Table 2 of the paper scaled down
// by scale (the paper's densest points, e.g. 1016 office POIs near the
// business district, are extremes; the scale keeps synthetic data
// manageable while preserving which type dominates where).
func POIMeans(r Region, scale float64) [4]float64 {
	if scale <= 0 {
		scale = 1
	}
	var m [4]float64
	switch r {
	case Resident:
		m = [4]float64{60, 0.4, 8, 12} // resident-dominated
	case Transport:
		m = [4]float64{20, 3.5, 16, 10} // transport POIs are rare but relatively elevated
	case Office:
		m = [4]float64{30, 1.0, 120, 30}
	case Entertainment:
		m = [4]float64{10, 0.8, 30, 150}
	case Comprehensive:
		m = [4]float64{35, 0.8, 35, 20}
	}
	for i := range m {
		m[i] *= scale
	}
	return m
}

// POIPresence returns, for each POI type, the probability that at least one
// POI of that type exists within 200 m of a tower in the given region. Real
// cities are sparse at a 200 m radius — many towers see no office or
// entertainment POI at all — and this sparsity is what makes the inverse
// document frequency (IDF) of Section 5.3 informative: a type that appears
// around every tower carries no discriminating weight.
func POIPresence(r Region) [4]float64 {
	switch r {
	case Resident:
		return [4]float64{0.90, 0.03, 0.25, 0.30}
	case Transport:
		return [4]float64{0.55, 0.65, 0.45, 0.35}
	case Office:
		return [4]float64{0.50, 0.08, 0.90, 0.45}
	case Entertainment:
		return [4]float64{0.40, 0.10, 0.50, 0.92}
	case Comprehensive:
		return [4]float64{0.70, 0.08, 0.55, 0.40}
	default:
		return [4]float64{}
	}
}
