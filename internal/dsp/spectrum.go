package dsp

import "fmt"

// Canonical frequency bin indices for a 4-week, 10-minute-slot traffic
// vector (N = 4032). With a 28-day window, bin k corresponds to a period of
// 28/k days:
//
//	k = 4  → one week
//	k = 28 → one day
//	k = 56 → half a day
//
// These are the three principal components identified in Section 5.1.
const (
	BinWeekly  = 4
	BinDaily   = 28
	BinHalfDay = 56
)

// PrincipalBins returns the three principal frequency bins (week, day,
// half-day) for a signal of nSamples covering nDays whole days. For the
// paper's configuration (4032 samples, 28 days) it returns 4, 28, 56.
// An error is returned if the coverage is shorter than a week, in which
// case the weekly bin does not exist.
func PrincipalBins(nSamples, nDays int) (week, day, halfDay int, err error) {
	if nSamples <= 0 || nDays <= 0 {
		return 0, 0, 0, fmt.Errorf("dsp: invalid signal shape samples=%d days=%d", nSamples, nDays)
	}
	if nDays%7 != 0 {
		return 0, 0, 0, fmt.Errorf("dsp: %d days is not a whole number of weeks", nDays)
	}
	week = nDays / 7
	day = nDays
	halfDay = 2 * nDays
	if halfDay >= nSamples {
		return 0, 0, 0, fmt.Errorf("dsp: half-day bin %d out of range for %d samples", halfDay, nSamples)
	}
	return week, day, halfDay, nil
}

// HarmonicBins appends to dst the bins of the harmonic traffic model — the
// weekly bin plus the first `harmonics` daily harmonics and the weekly
// sidebands of each: h·day − week, h·day, h·day + week for h = 0…harmonics,
// clipped to (0, nSamples) — and returns the extended slice. week and day
// are the bins PrincipalBins returns; 2·week < day, so the list is
// ascending and unique as built.
func HarmonicBins(dst []int, nSamples, week, day, harmonics int) []int {
	for h := 0; h <= harmonics; h++ {
		for _, b := range [3]int{h*day - week, h * day, h*day + week} {
			if b >= nSamples {
				return dst
			}
			if b > 0 {
				dst = append(dst, b)
			}
		}
	}
	return dst
}

// Spectrum is the DFT of a traffic vector, as Plan.Spectrum returns it.
type Spectrum struct {
	// Bins holds the complex DFT output, len == number of time samples.
	Bins []complex128
}

// Amplitudes returns |X[k]| for all bins.
func (s *Spectrum) Amplitudes() []float64 { return Amplitude(s.Bins) }
