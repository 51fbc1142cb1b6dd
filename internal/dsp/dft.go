// Package dsp implements the discrete Fourier transform machinery used by
// the frequency-domain analysis of Section 5 of the paper: forward and
// inverse DFT of real-valued traffic vectors, spectrum inspection
// (amplitude, phase, energy), and band-limited reconstruction from a small
// set of retained frequency components.
//
// The engine is Plan: an iterative in-place mixed-radix (Stockham) FFT with
// twiddle factors precomputed per length, a real-input RFFT path, Bluestein's
// algorithm for lengths with large prime factors, and a batch API that fans
// per-tower spectra across a worker pool (see plan.go and batch.go). Hold
// a Plan from NewPlan when transforming many signals of one length, or
// borrow one from the pool keyed by length with AcquirePlan/Release.
//
// The traffic vectors analysed by the paper have N = 4032 samples
// (28 days × 144 ten-minute slots); 4032 = 2⁶·3²·7 runs entirely through the
// radix-4/2 and generic odd-radix Stockham stages. The O(N²) direct
// transform survives only as the test oracle (directDFT in the tests).
package dsp

import (
	"fmt"
	"math/cmplx"
)

// Amplitude returns |X[k]| for every bin of the spectrum.
func Amplitude(spectrum []complex128) []float64 {
	out := make([]float64, len(spectrum))
	for i, c := range spectrum {
		out[i] = cmplx.Abs(c)
	}
	return out
}

// Energy returns the total energy of the time-domain signal, Σ x[n]².
func Energy(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

// applyMask zeroes every bin of the spectrum in place except bin 0 (the DC
// term), the listed bins k, and their conjugate mirrors N-k — the Xʳ[k]
// masking step of Section 5.1 — using the caller-owned boolean mask
// (len(mask) ≥ len(spectrum), all false). The mask is restored to all-false
// before returning, touching only the set entries. On error (component out
// of range) the spectrum is left untouched.
func applyMask(mask []bool, spectrum []complex128, ks []int) error {
	n := len(spectrum)
	for _, k := range ks {
		if k < 0 || k >= n {
			return fmt.Errorf("dsp: component %d out of range [0,%d)", k, n)
		}
	}
	mask[0] = true
	for _, k := range ks {
		mask[k] = true
		mask[(n-k)%n] = true
	}
	for i, keep := range mask[:n] {
		if !keep {
			spectrum[i] = 0
		}
	}
	mask[0] = false
	for _, k := range ks {
		mask[k] = false
		mask[(n-k)%n] = false
	}
	return nil
}
