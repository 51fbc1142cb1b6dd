package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// dft is the one-shot forward transform the correctness tests share: a
// fresh plan per call, so every test also exercises plan construction for
// its length.
func dft(x []float64) ([]complex128, error) {
	p, err := NewPlan(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	return out, p.Transform(out, x)
}

// idftReal inverts the spectrum of a real signal on a fresh plan.
func idftReal(spec []complex128) ([]float64, error) {
	p, err := NewPlan(len(spec))
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(spec))
	return out, p.InverseReal(out, spec)
}

// directDFT is the O(N²) reference forward transform, the oracle for the
// equivalence and fuzz tests of the FFT engine.
func directDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

// spectralEnergy returns (1/N)·Σ |X[k]|², which by Parseval's theorem
// equals the time-domain energy Σ x[n]².
func spectralEnergy(spectrum []complex128) float64 {
	if len(spectrum) == 0 {
		return 0
	}
	var s float64
	for _, c := range spectrum {
		s += real(c)*real(c) + imag(c)*imag(c)
	}
	return s / float64(len(spectrum))
}

// An empty signal has no transform: no plan can be built for it, and a plan
// refuses a signal or destination that is not exactly its length.
func TestDFTEmpty(t *testing.T) {
	if _, err := dft(nil); err == nil {
		t.Error("transform of an empty signal should fail")
	}
	if _, err := idftReal(nil); err == nil {
		t.Error("inverse of an empty spectrum should fail")
	}
	p, err := NewPlan(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(make([]complex128, 4), nil); err == nil {
		t.Error("plan of length 4 accepted an empty signal")
	}
	if err := p.InverseReal(nil, make([]complex128, 4)); err == nil {
		t.Error("plan of length 4 accepted an empty destination")
	}
}

func TestDFTConstantSignal(t *testing.T) {
	x := []float64{2, 2, 2, 2}
	spec, err := dft(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(spec[0])-8) > 1e-9 || math.Abs(imag(spec[0])) > 1e-9 {
		t.Errorf("DC bin = %v, want 8", spec[0])
	}
	for k := 1; k < 4; k++ {
		if cmplx.Abs(spec[k]) > 1e-9 {
			t.Errorf("bin %d = %v, want 0 for constant signal", k, spec[k])
		}
	}
}

func TestDFTSingleTone(t *testing.T) {
	// A pure cosine at bin 3 of a 48-sample signal should put all its
	// energy (split evenly) at bins 3 and 45.
	n := 48
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 3 * float64(i) / float64(n))
	}
	spec, err := dft(x)
	if err != nil {
		t.Fatal(err)
	}
	if got := cmplx.Abs(spec[3]); math.Abs(got-float64(n)/2) > 1e-6 {
		t.Errorf("|X[3]| = %g, want %g", got, float64(n)/2)
	}
	if got := cmplx.Abs(spec[45]); math.Abs(got-float64(n)/2) > 1e-6 {
		t.Errorf("|X[45]| = %g, want %g", got, float64(n)/2)
	}
	for k := 0; k < n; k++ {
		if k == 3 || k == 45 {
			continue
		}
		if cmplx.Abs(spec[k]) > 1e-6 {
			t.Errorf("|X[%d]| = %g, want ~0", k, cmplx.Abs(spec[k]))
		}
	}
}

func TestDFTMatchesDirectOnCompositeAndPrimeLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 5, 7, 8, 12, 13, 60, 63, 97, 144} {
		x := make([]float64, n)
		c := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			c[i] = complex(x[i], 0)
		}
		fast, err := dft(x)
		if err != nil {
			t.Fatal(err)
		}
		ref := directDFT(c)
		for k := range ref {
			if cmplx.Abs(fast[k]-ref[k]) > 1e-9*float64(n) {
				t.Errorf("n=%d bin %d: fast %v vs direct %v", n, k, fast[k], ref[k])
			}
		}
	}
}

func TestDFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 63, 100, 144} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec, err := dft(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := idftReal(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-8 {
				t.Fatalf("n=%d round trip[%d] = %g, want %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 252)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	spec, err := dft(x)
	if err != nil {
		t.Fatal(err)
	}
	te := Energy(x)
	se := spectralEnergy(spec)
	if math.Abs(te-se) > 1e-6*te {
		t.Errorf("Parseval violated: time %g vs spectral %g", te, se)
	}
}

// Reconstruct keeps the DC term, the listed bins and their conjugate
// mirrors and nothing else, and leaves its input alone.
func TestKeepComponents(t *testing.T) {
	x := []float64{3, -1, 4, 1, -5, 9, 2, -6}
	orig := append([]float64(nil), x...)
	p, err := NewPlan(len(x))
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := p.Reconstruct(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := dft(x)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := dft(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Bins 0, 2 and 6 (mirror of 2) survive.
	for k := range kept {
		want := complex128(0)
		if k == 0 || k == 2 || k == 6 {
			want = full[k]
		}
		if cmplx.Abs(kept[k]-want) > 1e-9 {
			t.Errorf("kept[%d] = %v, want %v", k, kept[k], want)
		}
	}
	if _, _, err := p.Reconstruct(x, 99); err == nil {
		t.Error("out-of-range component should fail")
	}
	if _, _, err := p.Reconstruct(x, -1); err == nil {
		t.Error("negative component should fail")
	}
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("Reconstruct modified its input")
		}
	}
}

func TestReconstructPureTones(t *testing.T) {
	// Signal composed only of bins 4 and 28 → keeping those bins loses
	// essentially no energy.
	n := 4032
	x := make([]float64, n)
	for i := range x {
		ti := float64(i)
		x[i] = 3*math.Cos(2*math.Pi*4*ti/float64(n)+0.3) + 2*math.Sin(2*math.Pi*28*ti/float64(n))
	}
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	rec, loss, err := p.Reconstruct(x, 4, 28)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1e-6 {
		t.Errorf("energy loss = %g, want ~0", loss)
	}
	for i := 0; i < n; i += 997 {
		if math.Abs(rec[i]-x[i]) > 1e-6 {
			t.Errorf("rec[%d] = %g, want %g", i, rec[i], x[i])
		}
	}
	// Dropping bin 28 must lose the energy of the second tone:
	// fraction = (2²/2) / (3²/2 + 2²/2) = 4/13.
	_, loss2, err := p.Reconstruct(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss2-4.0/13.0) > 1e-6 {
		t.Errorf("partial energy loss = %g, want %g", loss2, 4.0/13.0)
	}
}

func TestReconstructZeroSignal(t *testing.T) {
	x := make([]float64, 64)
	p, err := NewPlan(len(x))
	if err != nil {
		t.Fatal(err)
	}
	rec, loss, err := p.Reconstruct(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0 {
		t.Errorf("zero-signal energy loss = %g, want 0", loss)
	}
	for _, v := range rec {
		if v != 0 {
			t.Error("reconstruction of zero signal should be zero")
		}
	}
}

func TestPrincipalBins(t *testing.T) {
	w, d, h, err := PrincipalBins(4032, 28)
	if err != nil {
		t.Fatal(err)
	}
	if w != 4 || d != 28 || h != 56 {
		t.Errorf("PrincipalBins(4032, 28) = %d,%d,%d want 4,28,56", w, d, h)
	}
	if _, _, _, err := PrincipalBins(4032, 27); err == nil {
		t.Error("non-whole-week coverage should fail")
	}
	if _, _, _, err := PrincipalBins(0, 28); err == nil {
		t.Error("zero samples should fail")
	}
	if _, _, _, err := PrincipalBins(10, 7); err == nil {
		t.Error("half-day bin out of range should fail")
	}
}

// harmonicBinsOracle is the hand-built list anomaly.detect carried before
// HarmonicBins: principal bins, harmonics 2…n with sidebands, the daily
// sidebands, then clip, sort and de-duplicate.
func harmonicBinsOracle(nSamples, week, day, harmonics int) []int {
	bins := []int{week, day, 2 * day}
	for h := 2; h <= harmonics; h++ {
		bins = append(bins, h*day, h*day-week, h*day+week)
	}
	bins = append(bins, day-week, day+week)
	valid := bins[:0]
	for _, b := range bins {
		if b > 0 && b < nSamples {
			valid = append(valid, b)
		}
	}
	sort.Ints(valid)
	return slices.Compact(valid)
}

func TestHarmonicBins(t *testing.T) {
	for _, tc := range []struct {
		name             string
		nSamples, nDays  int
		harmonics        int
		want             []int
		appendsAfterHead bool
	}{
		{"one week of 10-minute slots", 1008, 7, 5,
			[]int{1, 6, 7, 8, 13, 14, 15, 20, 21, 22, 27, 28, 29, 34, 35, 36}, false},
		{"two weeks", 2016, 14, 5,
			[]int{2, 12, 14, 16, 26, 28, 30, 40, 42, 44, 54, 56, 58, 68, 70, 72}, true},
		{"the paper's four weeks", 4032, 28, 5,
			[]int{4, 24, 28, 32, 52, 56, 60, 80, 84, 88, 108, 112, 116, 136, 140, 144}, false},
		{"forecast's six harmonics", 2016, 14, 6,
			[]int{2, 12, 14, 16, 26, 28, 30, 40, 42, 44, 54, 56, 58, 68, 70, 72, 82, 84, 86}, false},
		// A week of six-hour slots has 28 samples: the fourth harmonic
		// (bin 28) and everything above it fall out of range.
		{"one week of 6-hour slots", 28, 7, 5,
			[]int{1, 6, 7, 8, 13, 14, 15, 20, 21, 22, 27}, false},
	} {
		week, day, _, err := PrincipalBins(tc.nSamples, tc.nDays)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var dst []int
		if tc.appendsAfterHead {
			dst = []int{-7}
		}
		got := HarmonicBins(dst, tc.nSamples, week, day, tc.harmonics)
		if tc.appendsAfterHead {
			if got[0] != -7 {
				t.Errorf("%s: HarmonicBins overwrote dst's contents", tc.name)
			}
			got = got[1:]
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: HarmonicBins = %v, want %v", tc.name, got, tc.want)
		}
		if oracle := harmonicBinsOracle(tc.nSamples, week, day, tc.harmonics); !slices.Equal(got, oracle) {
			t.Errorf("%s: HarmonicBins = %v, hand-built list %v", tc.name, got, oracle)
		}
	}
	// Every window shape the pipeline produces, against the hand-built list.
	for _, weeks := range []int{1, 2, 3, 4} {
		for _, slotMinutes := range []int{10, 20, 60, 180, 360} {
			nDays := 7 * weeks
			n := nDays * 1440 / slotMinutes
			for harmonics := 2; harmonics <= 7; harmonics++ { // the hand-built list always held the half-day bin
				got := HarmonicBins(nil, n, nDays/7, nDays, harmonics)
				if want := harmonicBinsOracle(n, nDays/7, nDays, harmonics); !slices.Equal(got, want) {
					t.Errorf("%d weeks at %d min, %d harmonics: %v, want %v", weeks, slotMinutes, harmonics, got, want)
				}
			}
		}
	}
}

func TestSpectrumAccessors(t *testing.T) {
	x := []float64{1, 0, -1, 0, 1, 0, -1, 0} // cosine at bin 2
	p, err := NewPlan(len(x))
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Spectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Bins) != 8 {
		t.Errorf("%d bins, want 8", len(s.Bins))
	}
	amps := s.Amplitudes()
	if len(amps) != 8 || math.Abs(amps[2]-4) > 1e-9 || math.Abs(amps[6]-4) > 1e-9 {
		t.Errorf("amplitudes = %v, want 4 at bins 2 and 6", amps)
	}
	if amps[1] > 1e-9 {
		t.Errorf("amplitude at bin 1 = %g, want 0", amps[1])
	}
	if _, err := p.Spectrum(x[:7]); err == nil {
		t.Error("a signal shorter than the plan should fail")
	}
}

// Property: DFT is linear — DFT(a·x + y) = a·dft(x) + dft(y).
func TestDFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed uint8) bool {
		n := int(seed%32) + 4
		a := rng.NormFloat64()
		x, y, mix := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
			mix[i] = a*x[i] + y[i]
		}
		sx, _ := dft(x)
		sy, _ := dft(y)
		sm, _ := dft(mix)
		for k := 0; k < n; k++ {
			want := complex(a, 0)*sx[k] + sy[k]
			if cmplx.Abs(sm[k]-want) > 1e-6*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: round trip through DFT and IDFT reproduces the signal, and
// Parseval's identity holds.
func TestDFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed uint8) bool {
		n := int(seed%60) + 2
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		spec, err := dft(x)
		if err != nil {
			return false
		}
		back, err := idftReal(spec)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-7 {
				return false
			}
		}
		return math.Abs(Energy(x)-spectralEnergy(spec)) <= 1e-7*(Energy(x)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFactorize(t *testing.T) {
	cases := []struct {
		n        int
		want     []int
		stockham bool
	}{
		{2, []int{2}, true},
		{4, []int{4}, true},
		{9, []int{3, 3}, true},
		{13, []int{13}, true},
		{63, []int{3, 3, 7}, true},
		{4032, []int{4, 4, 4, 3, 3, 7}, true},
		{97, nil, false},   // prime > maxStockhamRadix → Bluestein
		{2018, nil, false}, // 2·1009, large prime factor → Bluestein
	}
	for _, c := range cases {
		got, ok := factorize(c.n)
		if ok != c.stockham {
			t.Errorf("factorize(%d) stockham = %v, want %v", c.n, ok, c.stockham)
			continue
		}
		if !ok {
			continue
		}
		prod := 1
		for _, f := range got {
			prod *= f
		}
		if prod != c.n {
			t.Errorf("factorize(%d) = %v, product %d", c.n, got, prod)
		}
		if len(got) != len(c.want) {
			t.Errorf("factorize(%d) = %v, want %v", c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("factorize(%d) = %v, want %v", c.n, got, c.want)
				break
			}
		}
	}
}

func BenchmarkReconstruct4032(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 4032)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	p, err := NewPlan(len(x))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Reconstruct(x, BinWeekly, BinDaily, BinHalfDay); err != nil {
			b.Fatal(err)
		}
	}
}
