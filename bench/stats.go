package main

import (
	"math"
	"sort"
)

// summary is how every timing is reported: the median of the stated
// repetitions with min, quartiles and sample count, so a reader can see
// the spread behind the one number the metric carries.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize orders a copy of xs and reads the quartiles off it by linear
// interpolation between closest ranks. An empty sample is the zero summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
	}
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quantileOf returns the q-quantile of an unordered sample.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted returns the q-quantile (0..1) of an ascending sample.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Latency histograms are log-bucketed: bucket i covers
// [histMin·γ^i, histMin·γ^(i+1)) and reports its geometric midpoint, so
// any value inside the range is off by at most √γ−1 < 1 %. The range runs
// from 1 µs to over 100 s; values outside it are clamped into the end
// buckets (and the exact min and max are kept beside the buckets).
const (
	histGamma   = 1.02
	histMin     = 1e-6 // seconds
	histBuckets = 940  // histMin·γ^940 ≈ 121 s
)

var histLogGamma = math.Log(histGamma)

type histogram struct {
	counts   [histBuckets]uint32
	n        uint64
	min, max float64
}

func (h *histogram) add(seconds float64) {
	i := 0
	if seconds > histMin {
		i = int(math.Log(seconds/histMin) / histLogGamma)
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.counts[i]++
	if h.n == 0 || seconds < h.min {
		h.min = seconds
	}
	if seconds > h.max {
		h.max = seconds
	}
	h.n++
}

func (h *histogram) merge(o *histogram) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
}

// quantile returns the value below which a share q of the samples fall:
// the midpoint of the bucket holding the sample of rank ⌈q·n⌉, clamped to
// the exact extremes, which the first and the last rank return as they
// are. Zero for an empty histogram.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	switch {
	case rank <= 1:
		return h.min
	case rank >= h.n:
		return h.max
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			mid := histMin * math.Exp((float64(i)+0.5)*histLogGamma)
			return math.Min(math.Max(mid, h.min), h.max)
		}
	}
	return h.max
}

// slotMedian aggregates per-slot histograms the way query_p50_ms and
// query_p99_ms are defined: the median over the slots of each slot's own
// q-quantile. Slots without samples are skipped.
func slotMedian(slots []*histogram, q float64) float64 {
	vals := make([]float64, 0, len(slots))
	for _, h := range slots {
		if h.n > 0 {
			vals = append(vals, h.quantile(q))
		}
	}
	return median(vals)
}
