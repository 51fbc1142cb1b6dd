// Package linalg provides the dense vector, matrix and statistics
// primitives used throughout the traffic-pattern analysis pipeline.
//
// The package is intentionally small and allocation-conscious: the
// clustering stage operates on ~10,000 vectors of length 4,032 and the
// distance computations dominate runtime, so the hot paths (Dot, Sub,
// SquaredDistance) avoid bounds-check-unfriendly patterns and never
// allocate.
//
// Every vector, matrix and kernel type is generic over the Float
// constraint (float32 | float64). The float64 instantiations — exposed
// under the historical names Vector and Matrix — are the default modeling
// precision and are bit-identical to the pre-generic implementation: the
// generic bodies are exact transliterations, same operation order, same
// accumulation scheme. The float32 instantiations (Vector32, Matrix32)
// halve the memory traffic of the bandwidth-bound distance and NMF
// kernels; they are the opt-in fast path selected by core.Options.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Float is the element-type constraint of the generic kernels: every
// primitive in this package is instantiated for float64 (the default
// modeling precision) and float32 (the bandwidth-halving fast path).
type Float interface {
	float32 | float64
}

// Vec is a dense vector of F values. The zero value is an empty vector.
// Vectors are plain slices so callers may index and append freely;
// functions in this package never retain their arguments.
type Vec[F Float] []F

// Vector is the float64 vector used throughout the full-precision
// modeling path. It is an alias for Vec[float64], so existing callers and
// conversions keep working unchanged.
type Vector = Vec[float64]

// Vector32 is the float32 vector of the reduced-precision fast path.
type Vector32 = Vec[float32]

// Common errors returned by vector and matrix operations.
var (
	// ErrDimensionMismatch is returned when two operands do not have
	// compatible dimensions.
	ErrDimensionMismatch = errors.New("linalg: dimension mismatch")
	// ErrEmpty is returned when an operation requires at least one element.
	ErrEmpty = errors.New("linalg: empty input")
)

// Clone returns a deep copy of v.
func (v Vec[F]) Clone() Vec[F] {
	out := make(Vec[F], len(v))
	copy(out, v)
	return out
}

// Len returns the number of elements in v.
func (v Vec[F]) Len() int { return len(v) }

// AddInPlace adds w into v element-wise, modifying v.
func (v Vec[F]) AddInPlace(w Vec[F]) error {
	if len(v) != len(w) {
		return fmt.Errorf("%w: add-in-place %d vs %d", ErrDimensionMismatch, len(v), len(w))
	}
	for i := range v {
		v[i] += w[i]
	}
	return nil
}

// Sub returns v - w element-wise.
func (v Vec[F]) Sub(w Vec[F]) (Vec[F], error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("%w: sub %d vs %d", ErrDimensionMismatch, len(v), len(w))
	}
	out := make(Vec[F], len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out, nil
}

// ScaleInPlace multiplies every element of v by a.
func (v Vec[F]) ScaleInPlace(a F) {
	for i := range v {
		v[i] *= a
	}
}

// Dot returns the inner product of v and w, accumulated at the vector's
// own precision.
func (v Vec[F]) Dot(w Vec[F]) (F, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("%w: dot %d vs %d", ErrDimensionMismatch, len(v), len(w))
	}
	var s F
	for i := range v {
		s += v[i] * w[i]
	}
	return s, nil
}

// Norm returns the Euclidean (L2) norm of v. The squared sum accumulates
// at the vector's own precision; the square root is taken in float64.
func (v Vec[F]) Norm() float64 {
	var s F
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(float64(s))
}

// Sum returns the sum of all elements of v, accumulated at the vector's
// own precision.
func (v Vec[F]) Sum() float64 {
	var s F
	for _, x := range v {
		s += x
	}
	return float64(s)
}

// Mean returns the arithmetic mean of v. It returns 0 for an empty vector.
func (v Vec[F]) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Variance returns the population variance of v (dividing by n, not n-1).
// It returns 0 for vectors with fewer than one element. Deviations are
// widened to float64 before squaring, so the statistic keeps full
// precision for float32 vectors too.
func (v Vec[F]) Variance() float64 {
	if len(v) == 0 {
		return 0
	}
	m := v.Mean()
	var s float64
	for _, x := range v {
		d := float64(x) - m
		s += d * d
	}
	return s / float64(len(v))
}

// Std returns the population standard deviation of v.
func (v Vec[F]) Std() float64 { return math.Sqrt(v.Variance()) }

// Min returns the minimum element of v and its index. It returns
// (0, -1) for an empty vector.
func (v Vec[F]) Min() (F, int) {
	if len(v) == 0 {
		return 0, -1
	}
	min, idx := v[0], 0
	for i, x := range v {
		if x < min {
			min, idx = x, i
		}
	}
	return min, idx
}

// Max returns the maximum element of v and its index. It returns
// (0, -1) for an empty vector.
func (v Vec[F]) Max() (F, int) {
	if len(v) == 0 {
		return 0, -1
	}
	max, idx := v[0], 0
	for i, x := range v {
		if x > max {
			max, idx = x, i
		}
	}
	return max, idx
}

// Distance returns the Euclidean distance between v and w.
func Distance[F Float](v, w Vec[F]) (float64, error) {
	d, err := SquaredDistance(v, w)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(d), nil
}

// SquaredDistance returns the squared Euclidean distance between v and w,
// accumulated at the vectors' own precision. It is the hot path of the
// per-pair clustering fallback and does not allocate.
func SquaredDistance[F Float](v, w Vec[F]) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("%w: distance %d vs %d", ErrDimensionMismatch, len(v), len(w))
	}
	var s F
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return float64(s), nil
}

// Pearson returns the Pearson correlation coefficient between v and w.
// It returns 0 if either vector has zero variance.
func Pearson[F Float](v, w Vec[F]) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("%w: pearson %d vs %d", ErrDimensionMismatch, len(v), len(w))
	}
	if len(v) == 0 {
		return 0, ErrEmpty
	}
	mv, mw := v.Mean(), w.Mean()
	var num, dv, dw float64
	for i := range v {
		a, b := float64(v[i])-mv, float64(w[i])-mw
		num += a * b
		dv += a * a
		dw += b * b
	}
	if dv == 0 || dw == 0 {
		return 0, nil
	}
	return num / math.Sqrt(dv*dw), nil
}

// IsFinite reports whether every element of v is finite (not NaN or ±Inf).
// x − x is zero exactly when x is finite and NaN otherwise, so the sum of
// those differences is NaN exactly when some element is not finite; four
// accumulators and no branch per element keep the scan at memory speed.
func (v Vec[F]) IsFinite() bool {
	var s0, s1, s2, s3 F
	i := 0
	for ; i+4 <= len(v); i += 4 {
		s0 += v[i] - v[i]
		s1 += v[i+1] - v[i+1]
		s2 += v[i+2] - v[i+2]
		s3 += v[i+3] - v[i+3]
	}
	for ; i < len(v); i++ {
		s0 += v[i] - v[i]
	}
	s := s0 + s1 + s2 + s3
	return s == s
}
