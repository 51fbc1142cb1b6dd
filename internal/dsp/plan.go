package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Plan is a reusable FFT engine for signals of one fixed length. It
// precomputes twiddle factors once and owns all scratch buffers, so a warmed
// plan performs zero allocations per transform. The transform kernel is an
// iterative self-sorting (Stockham) mixed-radix FFT with specialised radix-2,
// radix-3 and radix-4 butterflies (each with an unrolled first-stage form for
// the unit-stride pass), an unrolled radix-7 butterfly bit-identical to the
// generic one, a generic butterfly for the remaining small odd prime
// factors, and Bluestein's chirp-z algorithm whenever the
// length has a prime factor larger than maxStockhamRadix — so no length ever
// falls back to the O(N²) direct transform. Real input goes through an RFFT
// path that packs the signal into a half-length complex transform.
//
// A Plan is NOT safe for concurrent use: its scratch buffers are shared
// between calls. Use Clone to give each goroutine its own plan (clones share
// the immutable twiddle tables), or the batch API which does this
// internally.
type Plan struct {
	n    int
	full *cplan       // complex transform of length n
	half *cplan       // length n/2 transform backing the RFFT path (nil when n is odd or 1)
	rt   []complex128 // e^{-2πik/n} for k in [0, n/2], RFFT post-twiddles (shared across clones)

	cw   []complex128 // len n complex scratch
	hw   []complex128 // len n/2 scratch for RFFT packing (nil when half is nil)
	sw   []complex128 // len n spectrum scratch for Reconstruct
	mask []bool       // len n component mask scratch
}

// NewPlan builds a plan for signals of length n. The construction cost is
// O(n log n) (twiddle precomputation); hold on to the plan when transforming
// many signals of the same length.
func NewPlan(n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dsp: invalid plan length %d", n)
	}
	p := &Plan{
		n:    n,
		full: newCplan(n),
		cw:   make([]complex128, n),
		sw:   make([]complex128, n),
		mask: make([]bool, n),
	}
	if n > 1 && n%2 == 0 {
		m := n / 2
		p.half = newCplan(m)
		p.hw = make([]complex128, m)
		p.rt = make([]complex128, m+1)
		for k := 0; k <= m; k++ {
			s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
			p.rt[k] = complex(c, s)
		}
	}
	return p, nil
}

// N returns the signal length the plan transforms.
func (p *Plan) N() int { return p.n }

// Clone returns an independent plan for the same length. The clone shares
// the immutable twiddle tables with p but owns fresh scratch buffers, so p
// and the clone can transform concurrently.
func (p *Plan) Clone() *Plan {
	c := &Plan{
		n:    p.n,
		full: p.full.clone(),
		rt:   p.rt,
		cw:   make([]complex128, p.n),
		sw:   make([]complex128, p.n),
		mask: make([]bool, p.n),
	}
	if p.half != nil {
		c.half = p.half.clone()
		c.hw = make([]complex128, p.n/2)
	}
	return c
}

// Transform computes the forward DFT of the real signal x into dst
// (len(dst) == len(x) == p.N()), using the half-length RFFT path for even
// lengths. The convention matches the paper: X[k] = Σ x[n]·e^{-2πi·k·n/N}.
func (p *Plan) Transform(dst []complex128, x []float64) error {
	if len(x) != p.n || len(dst) != p.n {
		return fmt.Errorf("dsp: plan length %d, got signal %d and destination %d", p.n, len(x), len(dst))
	}
	if p.half == nil {
		// Odd (or unit) length: promote to complex and run the full plan.
		for i, v := range x {
			p.cw[i] = complex(v, 0)
		}
		p.full.forward(dst, p.cw)
		return nil
	}
	// RFFT: pack pairs of real samples into a half-length complex signal,
	// transform, then untangle the even/odd sub-spectra.
	m := p.n / 2
	for t := 0; t < m; t++ {
		p.hw[t] = complex(x[2*t], x[2*t+1])
	}
	z := p.cw[:m]
	p.half.forward(z, p.hw)
	// X[k] = Xe[k] + ω^k·Xo[k] with Xe[k] = (Z[k]+conj(Z[M-k]))/2 and
	// Xo[k] = -i·(Z[k]-conj(Z[M-k]))/2; the upper half is the conjugate
	// mirror of the lower.
	xe0, xo0 := real(z[0]), imag(z[0])
	dst[0] = complex(xe0+xo0, 0)
	dst[m] = complex(xe0-xo0, 0)
	for k := 1; 2*k <= m; k++ {
		zk, zmk := z[k], cmplx.Conj(z[m-k])
		xe := (zk + zmk) * 0.5
		xo := (zk - zmk) * complex(0, -0.5)
		wxo := p.rt[k] * xo
		dst[k] = xe + wxo
		dst[p.n-k] = cmplx.Conj(dst[k])
		if km := m - k; km != k {
			// X[M-k] = conj(Xe[k] - ω^k·Xo[k]) because ω^{M-k} = -conj(ω^k).
			dst[km] = cmplx.Conj(xe - wxo)
			dst[p.n-km] = cmplx.Conj(dst[km])
		}
	}
	return nil
}

// InverseReal computes the inverse DFT of a conjugate-symmetric spectrum
// (the spectrum of a real signal, possibly with bins masked to zero in
// mirror pairs) and writes the real signal into dst. For even lengths it
// runs the half-length inverse RFFT path; spectra that are not conjugate
// symmetric have no real inverse and yield unspecified values.
func (p *Plan) InverseReal(dst []float64, spectrum []complex128) error {
	if len(spectrum) != p.n || len(dst) != p.n {
		return fmt.Errorf("dsp: plan length %d, got spectrum %d and destination %d", p.n, len(spectrum), len(dst))
	}
	if p.half == nil {
		p.full.forward(p.cw, conjInto(p.cw, spectrum))
		scale := 1 / float64(p.n)
		for i, v := range p.cw {
			dst[i] = real(v) * scale
		}
		return nil
	}
	// Re-tangle the even/odd sub-spectra and invert the half-length packed
	// transform: Z[k] = Xe[k] + i·Xo[k] with Xe[k] = (X[k]+X[k+M])/2 and
	// Xo[k] = conj(ω^k)·(X[k]-X[k+M])/2.
	m := p.n / 2
	for k := 0; k < m; k++ {
		s1, s2 := spectrum[k], spectrum[k+m]
		xe := (s1 + s2) * 0.5
		xo := cmplx.Conj(p.rt[k]) * (s1 - s2) * 0.5
		p.hw[k] = cmplx.Conj(xe + complex(0, 1)*xo)
	}
	z := p.cw[:m]
	p.half.forward(z, p.hw)
	scale := 1 / float64(m)
	for t := 0; t < m; t++ {
		// z holds conj(DFT(conj(Z))): undo the conjugation and scale.
		dst[2*t] = real(z[t]) * scale
		dst[2*t+1] = -imag(z[t]) * scale
	}
	return nil
}

// conjInto fills dst with the conjugate of src and returns dst.
func conjInto(dst, src []complex128) []complex128 {
	for i, v := range src {
		dst[i] = cmplx.Conj(v)
	}
	return dst
}

// Spectrum computes the spectrum of the real signal x using the plan.
func (p *Plan) Spectrum(x []float64) (*Spectrum, error) {
	bins := make([]complex128, p.n)
	if err := p.Transform(bins, x); err != nil {
		return nil, err
	}
	return &Spectrum{Bins: bins}, nil
}

// Reconstruct rebuilds x from the DC term plus the components ks and their
// conjugate mirrors, returning the band-limited signal and the relative
// energy loss |E(x) - E(xr)| / E(x) as defined in Section 5.1 of the paper.
func (p *Plan) Reconstruct(x []float64, ks ...int) ([]float64, float64, error) {
	out := make([]float64, p.n)
	if err := p.ReconstructInto(out, x, ks...); err != nil {
		return nil, 0, err
	}
	orig := Energy(x)
	if orig == 0 {
		return out, 0, nil
	}
	return out, math.Abs(orig-Energy(out)) / orig, nil
}

// ReconstructInto is Reconstruct writing the band-limited signal into dst,
// without the energy loss. Apart from error paths it performs no
// allocations: the spectrum is masked in place in plan-owned scratch.
func (p *Plan) ReconstructInto(dst []float64, x []float64, ks ...int) error {
	if err := p.Transform(p.sw, x); err != nil {
		return err
	}
	if err := applyMask(p.mask, p.sw, ks); err != nil {
		return err
	}
	return p.InverseReal(dst, p.sw)
}

// --- Complex transform kernels -------------------------------------------

// maxStockhamRadix is the largest prime factor handled by the generic
// mixed-radix butterfly. Lengths with a larger prime factor (in particular
// prime lengths ≥ 31) go through Bluestein's algorithm instead, keeping
// every length O(N log N).
const maxStockhamRadix = 29

// cplan is a forward complex DFT of one fixed length: either a mixed-radix
// Stockham pipeline (stages != nil) or a Bluestein chirp-z transform.
type cplan struct {
	n      int
	stages []stage              // immutable, shared across clones
	radix  map[int][]complex128 // ω_r^{ju} tables for generic radices, shared
	bs     *bluestein           // non-nil for lengths with a large prime factor
	work   []complex128         // len n ping-pong buffer, owned per clone
}

// stage is one Stockham butterfly pass: radix r applied to sub-transforms of
// length r·m at stride s, with tw[p*(r-1)+j-1] = e^{-2πi·p·j/(r·m)}.
type stage struct {
	r, m, s int
	tw      []complex128
}

func newCplan(n int) *cplan {
	c := &cplan{n: n}
	factors, ok := factorize(n)
	if !ok {
		c.bs = newBluestein(n)
		return c
	}
	c.work = make([]complex128, n)
	c.stages = make([]stage, 0, len(factors))
	s := 1
	rem := n
	for _, r := range factors {
		m := rem / r
		st := stage{r: r, m: m, s: s, tw: make([]complex128, m*(r-1))}
		for p := 0; p < m; p++ {
			for j := 1; j < r; j++ {
				sin, cos := math.Sincos(-2 * math.Pi * float64(p*j) / float64(rem))
				st.tw[p*(r-1)+j-1] = complex(cos, sin)
			}
		}
		c.stages = append(c.stages, st)
		if r != 2 && r != 3 && r != 4 {
			if c.radix == nil {
				c.radix = make(map[int][]complex128)
			}
			if _, done := c.radix[r]; !done {
				rt := make([]complex128, r*r)
				for j := 0; j < r; j++ {
					for u := 0; u < r; u++ {
						sin, cos := math.Sincos(-2 * math.Pi * float64((j*u)%r) / float64(r))
						rt[j*r+u] = complex(cos, sin)
					}
				}
				c.radix[r] = rt
			}
		}
		s *= r
		rem = m
	}
	return c
}

func (c *cplan) clone() *cplan {
	out := &cplan{n: c.n, stages: c.stages, radix: c.radix}
	if c.bs != nil {
		out.bs = c.bs.clone()
		return out
	}
	out.work = make([]complex128, c.n)
	return out
}

// forward computes the unscaled forward DFT of src into dst. dst may alias
// src; it must not alias c.work (which is private to the plan).
func (c *cplan) forward(dst, src []complex128) {
	if c.bs != nil {
		c.bs.forward(dst, src)
		return
	}
	if c.n == 1 {
		dst[0] = src[0]
		return
	}
	// Ping-pong between two buffers, arranging the parity so the final
	// stage writes into dst.
	a, b := dst, c.work
	if len(c.stages)%2 == 1 {
		a, b = c.work, dst
	}
	if &a[0] != &src[0] {
		copy(a, src)
	}
	for i := range c.stages {
		c.pass(b, a, &c.stages[i])
		a, b = b, a
	}
}

// pass runs one Stockham stage from src into dst on its radix's butterfly.
func (c *cplan) pass(dst, src []complex128, st *stage) {
	switch st.r {
	case 2:
		stageRadix2(dst, src, st)
	case 3:
		stageRadix3(dst, src, st)
	case 4:
		stageRadix4(dst, src, st)
	case 7:
		stageRadix7(dst, src, st, c.radix[7])
	default:
		stageGeneric(dst, src, st, c.radix[st.r])
	}
}

// stageRadix2 performs y[q+s(2p+j)] = (a0 ± a1)·ω^{pj} for j in {0,1}.
func stageRadix2(dst, src []complex128, st *stage) {
	m, s := st.m, st.s
	if s == 1 {
		// First-stage form (s==1 only ever happens on the first stage): the
		// inner stride loop collapses to a single iteration, so skip the
		// loop setup and the stride multiplies. Same operations, same
		// rounding — just less bookkeeping per butterfly.
		for p := 0; p < m; p++ {
			a0, a1 := src[p], src[p+m]
			dst[2*p] = a0 + a1
			dst[2*p+1] = (a0 - a1) * st.tw[p]
		}
		return
	}
	for p := 0; p < m; p++ {
		w := st.tw[p]
		i0 := s * p
		i1 := s * (p + m)
		o0 := s * 2 * p
		o1 := o0 + s
		for q := 0; q < s; q++ {
			a0, a1 := src[i0+q], src[i1+q]
			dst[o0+q] = a0 + a1
			dst[o1+q] = (a0 - a1) * w
		}
	}
}

// sqrt3Half is sin(π/3), the imaginary magnitude of the primitive cube
// roots of unity used by the radix-3 butterfly.
const sqrt3Half = 0.8660254037844386

// stageRadix3 is the specialised radix-3 butterfly. With ω = e^{-2πi/3} =
// -1/2 - i·√3/2 the three outputs share one symmetric intermediate pair:
//
//	y0 = a0 + (a1+a2)
//	y1 = (a0 - (a1+a2)/2 - i·√3/2·(a1-a2)) · ω^p
//	y2 = (a0 - (a1+a2)/2 + i·√3/2·(a1-a2)) · ω^{2p}
//
// — 4 complex adds and one real scaling instead of the 9 complex multiplies
// and 6 adds of the generic table-driven butterfly.
func stageRadix3(dst, src []complex128, st *stage) {
	m, s := st.m, st.s
	if s == 1 {
		for p := 0; p < m; p++ {
			a0, a1, a2 := src[p], src[p+m], src[p+2*m]
			t1 := a1 + a2
			t2 := a0 - t1*0.5
			d := a1 - a2
			u := complex(imag(d)*sqrt3Half, -real(d)*sqrt3Half) // -i·√3/2·d
			dst[3*p] = a0 + t1
			dst[3*p+1] = (t2 + u) * st.tw[2*p]
			dst[3*p+2] = (t2 - u) * st.tw[2*p+1]
		}
		return
	}
	for p := 0; p < m; p++ {
		w1 := st.tw[2*p]
		w2 := st.tw[2*p+1]
		i0 := s * p
		o0 := s * 3 * p
		for q := 0; q < s; q++ {
			a0 := src[i0+q]
			a1 := src[i0+s*m+q]
			a2 := src[i0+2*s*m+q]
			t1 := a1 + a2
			t2 := a0 - t1*0.5
			d := a1 - a2
			u := complex(imag(d)*sqrt3Half, -real(d)*sqrt3Half)
			dst[o0+q] = a0 + t1
			dst[o0+s+q] = (t2 + u) * w1
			dst[o0+2*s+q] = (t2 - u) * w2
		}
	}
}

// stageRadix4 is the radix-4 butterfly (forward twiddle ω_4 = -i).
func stageRadix4(dst, src []complex128, st *stage) {
	m, s := st.m, st.s
	if s == 1 {
		// First-stage fast path: single-iteration stride loop unrolled away.
		for p := 0; p < m; p++ {
			a0, a1, a2, a3 := src[p], src[p+m], src[p+2*m], src[p+3*m]
			t0, t1 := a0+a2, a1+a3
			t2 := a0 - a2
			d := a1 - a3
			t3 := complex(imag(d), -real(d)) // -i·(a1-a3)
			dst[4*p] = t0 + t1
			dst[4*p+1] = (t2 + t3) * st.tw[3*p]
			dst[4*p+2] = (t0 - t1) * st.tw[3*p+1]
			dst[4*p+3] = (t2 - t3) * st.tw[3*p+2]
		}
		return
	}
	for p := 0; p < m; p++ {
		w1 := st.tw[3*p]
		w2 := st.tw[3*p+1]
		w3 := st.tw[3*p+2]
		i0 := s * p
		o0 := s * 4 * p
		for q := 0; q < s; q++ {
			a0 := src[i0+q]
			a1 := src[i0+s*m+q]
			a2 := src[i0+2*s*m+q]
			a3 := src[i0+3*s*m+q]
			t0, t1 := a0+a2, a1+a3
			t2 := a0 - a2
			d := a1 - a3
			t3 := complex(imag(d), -real(d)) // -i·(a1-a3)
			dst[o0+q] = t0 + t1
			dst[o0+s+q] = (t2 + t3) * w1
			dst[o0+2*s+q] = (t0 - t1) * w2
			dst[o0+3*s+q] = (t2 - t3) * w3
		}
	}
}

// stageGeneric is the mixed-radix butterfly for any small radix r, using the
// precomputed ω_r^{ju} table.
func stageGeneric(dst, src []complex128, st *stage, rt []complex128) {
	r, m, s := st.r, st.m, st.s
	for p := 0; p < m; p++ {
		twp := st.tw[p*(r-1):]
		for j := 0; j < r; j++ {
			wr := rt[j*r : j*r+r]
			base := s * (r*p + j)
			for q := 0; q < s; q++ {
				var acc complex128
				for u := 0; u < r; u++ {
					acc += src[s*(p+u*m)+q] * wr[u]
				}
				if j > 0 {
					acc *= twp[j-1]
				}
				dst[base+q] = acc
			}
		}
	}
}

// stageRadix7 is stageGeneric at r = 7, the radix of every whole-week
// length: each (p, q) loads its seven inputs once instead of once per
// output, and the u loop is unrolled. Every output still starts from a
// zero accumulator, adds its seven table products in ascending u and then
// takes its twiddle, so the two butterflies agree bit for bit.
func stageRadix7(dst, src []complex128, st *stage, rt []complex128) {
	m, s := st.m, st.s
	rt = rt[:49]
	for p := 0; p < m; p++ {
		twp := st.tw[6*p : 6*p+6]
		for q := 0; q < s; q++ {
			i := s*p + q
			a0 := src[i]
			a1 := src[i+s*m]
			a2 := src[i+2*s*m]
			a3 := src[i+3*s*m]
			a4 := src[i+4*s*m]
			a5 := src[i+5*s*m]
			a6 := src[i+6*s*m]
			o := s*7*p + q
			for j := 0; j < 7; j++ {
				wr := rt[7*j : 7*j+7]
				var acc complex128
				acc += a0 * wr[0]
				acc += a1 * wr[1]
				acc += a2 * wr[2]
				acc += a3 * wr[3]
				acc += a4 * wr[4]
				acc += a5 * wr[5]
				acc += a6 * wr[6]
				if j > 0 {
					acc *= twp[j-1]
				}
				dst[o+j*s] = acc
			}
		}
	}
}

// factorize splits n into Stockham radices — fours first, then a two, then
// odd primes ascending — and reports false when a prime factor exceeds
// maxStockhamRadix (the Bluestein cases).
func factorize(n int) ([]int, bool) {
	var factors []int
	for n%4 == 0 {
		factors = append(factors, 4)
		n /= 4
	}
	if n%2 == 0 {
		factors = append(factors, 2)
		n /= 2
	}
	for f := 3; f*f <= n; f += 2 {
		for n%f == 0 {
			if f > maxStockhamRadix {
				return nil, false
			}
			factors = append(factors, f)
			n /= f
		}
	}
	if n > 1 {
		if n > maxStockhamRadix {
			return nil, false
		}
		factors = append(factors, n)
	}
	return factors, true
}
