package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// zscored returns ZScoreNormalizeInto's output in a fresh vector.
func zscored(v Vector) Vector {
	z := make(Vector, len(v))
	_ = ZScoreNormalizeInto(z, v) // lengths match by construction
	return z
}

func TestZScoreNormalize(t *testing.T) {
	v := Vector{1, 2, 3, 4, 5}
	z := zscored(v)
	if !almostEqual(z.Mean(), 0, 1e-12) {
		t.Errorf("mean of z-scored = %g, want 0", z.Mean())
	}
	if !almostEqual(z.Std(), 1, 1e-12) {
		t.Errorf("std of z-scored = %g, want 1", z.Std())
	}
}

func TestZScoreNormalizeConstant(t *testing.T) {
	v := Vector{7, 7, 7}
	z := Vector{1, 1, 1} // stale contents must be overwritten
	if err := ZScoreNormalizeInto(z, v); err != nil {
		t.Fatal(err)
	}
	for i, x := range z {
		if x != 0 {
			t.Errorf("z[%d] = %g, want 0 for constant input", i, x)
		}
	}
	if err := ZScoreNormalizeInto[float64](nil, nil); err != nil {
		t.Errorf("z-score of empty vector: %v", err)
	}
	if err := ZScoreNormalizeInto(make(Vector, 2), v); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestNormalizeByMax(t *testing.T) {
	v := Vector{2, 4, 8}
	n := NormalizeByMax(v)
	if n[2] != 1 || n[0] != 0.25 {
		t.Errorf("NormalizeByMax = %v", n)
	}
	zeros := NormalizeByMax(Vector{0, 0})
	if zeros[0] != 0 || zeros[1] != 0 {
		t.Error("NormalizeByMax of zero vector should be zeros")
	}
	neg := NormalizeByMax(Vector{-1, -2})
	if neg[0] != 0 || neg[1] != 0 {
		t.Error("NormalizeByMax with non-positive max should be zeros")
	}
}

func TestQuantile(t *testing.T) {
	v := Vector{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(v, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile of empty vector should be 0")
	}
}

func TestCDF(t *testing.T) {
	v := Vector{1, 2, 3, 4}
	probes := []float64{0, 1, 2.5, 4, 10}
	got := CDF(v, probes)
	want := []float64{0, 0.25, 0.5, 1, 1}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("CDF[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	empty := CDF(nil, probes)
	for _, x := range empty {
		if x != 0 {
			t.Error("CDF of empty vector should be all zeros")
		}
	}
}

func TestCircularMeanStd(t *testing.T) {
	// Angles clustered around π wrap across the discontinuity.
	angles := Vector{math.Pi - 0.1, -math.Pi + 0.1}
	mean, std := CircularMeanStd(angles)
	if PhaseDistance(mean, math.Pi) > 1e-9 {
		t.Errorf("circular mean = %g, want ±π", mean)
	}
	if std <= 0 || std > 0.2 {
		t.Errorf("circular std = %g, want small positive", std)
	}
	mean, std = CircularMeanStd(Vector{0.5, 0.5, 0.5})
	if !almostEqual(mean, 0.5, 1e-9) || !almostEqual(std, 0, 1e-6) {
		t.Errorf("identical angles: mean=%g std=%g", mean, std)
	}
	if m, s := CircularMeanStd(nil); m != 0 || s != 0 {
		t.Error("empty circular stats should be zero")
	}
}

func TestWrapPhase(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-2.5 * math.Pi, -0.5 * math.Pi},
	}
	for _, c := range cases {
		if got := WrapPhase(c.in); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("WrapPhase(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestPhaseDistance(t *testing.T) {
	if d := PhaseDistance(math.Pi-0.05, -math.Pi+0.05); !almostEqual(d, 0.1, 1e-9) {
		t.Errorf("PhaseDistance across wrap = %g, want 0.1", d)
	}
	if d := PhaseDistance(0, math.Pi); !almostEqual(d, math.Pi, 1e-9) {
		t.Errorf("PhaseDistance(0, π) = %g, want π", d)
	}
}

// Property: z-score output always has near-zero mean and unit (or zero) std.
func TestZScoreProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(n uint8) bool {
		dim := int(n%64) + 2
		v := make(Vector, dim)
		for i := range v {
			v[i] = rng.NormFloat64() * 100
		}
		z := zscored(v)
		if !z.IsFinite() {
			return false
		}
		return math.Abs(z.Mean()) < 1e-8 && math.Abs(z.Std()-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Min and Max bracket every element, their indices locate them
// (the first occurrence on ties), and NormalizeByMax maps a positive
// maximum to exactly 1 with nothing above it.
func TestMinMaxProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(n uint8) bool {
		dim := int(n%64) + 2
		v := make(Vector, dim)
		for i := range v {
			v[i] = math.Round(rng.NormFloat64() * 5) // small integers: ties occur
		}
		min, imin := v.Min()
		max, imax := v.Max()
		if v[imin] != min || v[imax] != max {
			return false
		}
		for i, x := range v {
			if x < min || x > max || (x == min && i < imin) || (x == max && i < imax) {
				return false
			}
		}
		scaled := NormalizeByMax(v)
		top, _ := scaled.Max()
		if max > 0 {
			return top == 1 && scaled[imax] == 1
		}
		return top == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: WrapPhase always lands in (-π, π] and preserves the angle
// modulo 2π.
func TestWrapPhaseProperty(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e6 {
			return true
		}
		w := WrapPhase(a)
		if w <= -math.Pi || w > math.Pi {
			return false
		}
		// Same point on the unit circle.
		return math.Abs(math.Sin(w)-math.Sin(a)) < 1e-6 && math.Abs(math.Cos(w)-math.Cos(a)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkZScoreNormalize4032(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := make(Vector, 4032)
	for i := range v {
		v[i] = rng.Float64()
	}
	z := make(Vector, len(v))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ZScoreNormalizeInto(z, v)
	}
}
