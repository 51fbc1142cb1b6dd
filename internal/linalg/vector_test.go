package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestVectorAddSub(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	sum := v.Clone()
	if err := sum.AddInPlace(w); err != nil {
		t.Fatalf("AddInPlace: %v", err)
	}
	want := Vector{5, 7, 9}
	for i := range want {
		if sum[i] != want[i] {
			t.Errorf("AddInPlace[%d] = %g, want %g", i, sum[i], want[i])
		}
	}
	diff, err := w.Sub(v)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	for i := range diff {
		if diff[i] != 3 {
			t.Errorf("Sub[%d] = %g, want 3", i, diff[i])
		}
	}
}

func TestVectorDimensionMismatch(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{1, 2}
	if _, err := v.Sub(w); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Sub mismatch: got %v, want ErrDimensionMismatch", err)
	}
	if _, err := v.Dot(w); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Dot mismatch: got %v, want ErrDimensionMismatch", err)
	}
	if _, err := Distance(v, w); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Distance mismatch: got %v, want ErrDimensionMismatch", err)
	}
	if err := v.AddInPlace(w); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("AddInPlace mismatch: got %v, want ErrDimensionMismatch", err)
	}
}

func TestVectorDotNorm(t *testing.T) {
	v := Vector{3, 4}
	d, err := v.Dot(v)
	if err != nil {
		t.Fatalf("Dot: %v", err)
	}
	if d != 25 {
		t.Errorf("Dot = %g, want 25", d)
	}
	if v.Norm() != 5 {
		t.Errorf("Norm = %g, want 5", v.Norm())
	}
}

func TestVectorStats(t *testing.T) {
	v := Vector{2, 4, 4, 4, 5, 5, 7, 9}
	if got := v.Mean(); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := v.Variance(); got != 4 {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := v.Std(); got != 2 {
		t.Errorf("Std = %g, want 2", got)
	}
	min, imin := v.Min()
	if min != 2 || imin != 0 {
		t.Errorf("Min = (%g, %d), want (2, 0)", min, imin)
	}
	max, imax := v.Max()
	if max != 9 || imax != 7 {
		t.Errorf("Max = (%g, %d), want (9, 7)", max, imax)
	}
}

func TestVectorEmptyStats(t *testing.T) {
	var v Vector
	if v.Mean() != 0 || v.Variance() != 0 || v.Std() != 0 {
		t.Errorf("empty vector stats should be zero")
	}
	if _, i := v.Min(); i != -1 {
		t.Errorf("empty Min index = %d, want -1", i)
	}
	if _, i := v.Max(); i != -1 {
		t.Errorf("empty Max index = %d, want -1", i)
	}
}

func TestDistance(t *testing.T) {
	v := Vector{0, 0}
	w := Vector{3, 4}
	d, err := Distance(v, w)
	if err != nil {
		t.Fatalf("Distance: %v", err)
	}
	if d != 5 {
		t.Errorf("Distance = %g, want 5", d)
	}
	sq, err := SquaredDistance(v, w)
	if err != nil {
		t.Fatalf("SquaredDistance: %v", err)
	}
	if sq != 25 {
		t.Errorf("SquaredDistance = %g, want 25", sq)
	}
}

func TestPearson(t *testing.T) {
	v := Vector{1, 2, 3, 4, 5}
	w := Vector{2, 4, 6, 8, 10}
	r, err := Pearson(v, w)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("Pearson(v, 2v) = %g, want 1", r)
	}
	neg := Vector{10, 8, 6, 4, 2}
	r, err = Pearson(v, neg)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("Pearson(v, -v) = %g, want -1", r)
	}
	constant := Vector{3, 3, 3, 3, 3}
	r, err = Pearson(v, constant)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if r != 0 {
		t.Errorf("Pearson with constant = %g, want 0", r)
	}
	if _, err := Pearson(Vector{}, Vector{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("Pearson empty: got %v, want ErrEmpty", err)
	}
}

// The centroid of a set of vectors, accumulated the way the clustering
// engine does it: AddInPlace per member, one ScaleInPlace by 1/count.
func TestCentroid(t *testing.T) {
	vs := []Vector{{1, 2}, {3, 4}, {5, 6}}
	c := make(Vector, 2)
	for _, v := range vs {
		if err := c.AddInPlace(v); err != nil {
			t.Fatalf("AddInPlace: %v", err)
		}
	}
	c.ScaleInPlace(1 / float64(len(vs)))
	if c[0] != 3 || c[1] != 4 {
		t.Errorf("centroid = %v, want [3 4]", c)
	}
	if err := c.AddInPlace(Vector{1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged member: got %v, want ErrDimensionMismatch", err)
	}
	if c[0] != 3 || c[1] != 4 {
		t.Errorf("a rejected member changed the accumulator: %v", c)
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vector{1, 2, 3}).IsFinite() {
		t.Error("finite vector reported as non-finite")
	}
	if (Vector{1, math.NaN()}).IsFinite() {
		t.Error("NaN vector reported as finite")
	}
	if (Vector{math.Inf(1)}).IsFinite() {
		t.Error("Inf vector reported as finite")
	}
}

// isFiniteOracle is the per-element predicate IsFinite replaced.
func isFiniteOracle[F Float](v Vec[F]) bool {
	for _, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return false
		}
	}
	return true
}

// IsFinite gives the per-element predicate's verdict with NaN, ±Inf or the
// largest finite value of either sign at every position of every length
// 0–19, on top of finite values of mixed signs.
func TestIsFiniteMatchesPredicate(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testIsFiniteMatchesPredicate[float64](t, math.MaxFloat64) })
	t.Run("float32", func(t *testing.T) { testIsFiniteMatchesPredicate[float32](t, math.MaxFloat32) })
}

func testIsFiniteMatchesPredicate[F Float](t *testing.T, maxFinite float64) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), maxFinite, -maxFinite}
	for n := 0; n < 20; n++ {
		v := make(Vec[F], n)
		for i := range v {
			v[i] = F(float64(i%5) - 2.5)
		}
		if got := v.IsFinite(); !got || got != isFiniteOracle(v) {
			t.Fatalf("length %d finite: IsFinite %v", n, got)
		}
		for pos := 0; pos < n; pos++ {
			for _, x := range specials {
				w := v.Clone()
				w[pos] = F(x)
				if got, want := w.IsFinite(), isFiniteOracle(w); got != want {
					t.Errorf("length %d, %g at %d: IsFinite %v, predicate %v", n, x, pos, got, want)
				}
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares storage with the original")
	}
}

// Property: squared distance is symmetric and non-negative, and the
// triangle inequality holds for the Euclidean distance.
func TestDistanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n uint8) bool {
		dim := int(n%16) + 1
		a, b, c := make(Vector, dim), make(Vector, dim), make(Vector, dim)
		for i := 0; i < dim; i++ {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			c[i] = rng.NormFloat64()
		}
		dab, _ := Distance(a, b)
		dba, _ := Distance(b, a)
		dac, _ := Distance(a, c)
		dcb, _ := Distance(c, b)
		if dab < 0 || !almostEqual(dab, dba, 1e-12) {
			return false
		}
		return dab <= dac+dcb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: dot product is commutative and linear in its first argument.
func TestDotProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(n uint8) bool {
		dim := int(n%16) + 1
		a, b := make(Vector, dim), make(Vector, dim)
		for i := 0; i < dim; i++ {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		ab, _ := a.Dot(b)
		ba, _ := b.Dot(a)
		a2 := a.Clone()
		a2.ScaleInPlace(2)
		scaled, _ := a2.Dot(b)
		return almostEqual(ab, ba, 1e-9) && almostEqual(scaled, 2*ab, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSquaredDistance4032(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v, w := make(Vector, 4032), make(Vector, 4032)
	for i := range v {
		v[i] = rng.Float64()
		w[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SquaredDistance(v, w); err != nil {
			b.Fatal(err)
		}
	}
}
