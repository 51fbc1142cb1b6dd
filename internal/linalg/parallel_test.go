package linalg

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// The ctx-less forms of the parallel kernels, deleted from the package
// because only tests called them.

func parallelMulInto[F Float](m, dst, other *Mat[F], workers int) error {
	return m.ParallelMulIntoCtx(context.Background(), dst, other, workers)
}

func parallelTransposeInto[F Float](m, dst *Mat[F], workers int) error {
	return m.ParallelTransposeIntoCtx(context.Background(), dst, workers)
}

// randomMatrix fills a rows×cols matrix with standard normal values, with a
// sprinkling of exact zeros to exercise the a==0 skip of the kernels.
func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Intn(16) == 0 {
			continue
		}
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// workerCounts are the parallelism levels every determinism test sweeps:
// the serial path, small fixed counts, GOMAXPROCS and the "use all cores"
// default.
func workerCounts() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0), 0}
}

func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("ResolveWorkers(0) = %d, want GOMAXPROCS", got)
	}
	if got := ResolveWorkers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("ResolveWorkers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := ResolveWorkers(5); got != 5 {
		t.Errorf("ResolveWorkers(5) = %d, want 5", got)
	}
}

// Property: ParallelMulIntoCtx is bit-identical to the serial MulInto for any
// worker count, including shapes that do not divide evenly into blocks and
// matrices small enough to take the serial fallback.
func TestParallelMulIntoMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	shapes := [][3]int{
		{1, 1, 1},
		{3, 5, 2},
		{17, 33, 9},   // below the parallel threshold
		{130, 70, 45}, // above it, ragged block boundaries
		{64, 128, 32}, // exact block multiples
		{parallelBlockRows*3 + 1, 61, 40},
	}
	for _, s := range shapes {
		a := randomMatrix(rng, s[0], s[1])
		bm := randomMatrix(rng, s[1], s[2])
		want := NewMatrix(s[0], s[2])
		if err := a.MulInto(want, bm); err != nil {
			t.Fatal(err)
		}
		for _, workers := range workerCounts() {
			got := randomMatrix(rng, s[0], s[2]) // pre-soiled: the kernel must overwrite
			if err := parallelMulInto(a, got, bm, workers); err != nil {
				t.Fatalf("shape %v workers %d: %v", s, workers, err)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("shape %v workers %d: element %d = %g, want %g (must be bit-identical)",
						s, workers, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestParallelTransposeIntoMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	shapes := [][2]int{{1, 1}, {4, 7}, {40, 9}, {129, 300}, {256, 128}}
	for _, s := range shapes {
		m := randomMatrix(rng, s[0], s[1])
		want := NewMatrix(s[1], s[0])
		if err := m.TransposeInto(want); err != nil {
			t.Fatal(err)
		}
		for _, workers := range workerCounts() {
			got := randomMatrix(rng, s[1], s[0])
			if err := parallelTransposeInto(m, got, workers); err != nil {
				t.Fatalf("shape %v workers %d: %v", s, workers, err)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("shape %v workers %d: element %d differs", s, workers, i)
				}
			}
		}
	}
}

func TestParallelKernelDimensionErrors(t *testing.T) {
	a := NewMatrix(100, 60)
	b := NewMatrix(50, 70) // inner dimension mismatch
	dst := NewMatrix(100, 70)
	for _, workers := range []int{1, 4} {
		if err := parallelMulInto(a, dst, b, workers); !errors.Is(err, ErrDimensionMismatch) {
			t.Errorf("workers %d: mismatched product: %v", workers, err)
		}
		bad := NewMatrix(10, 10)
		ok := NewMatrix(60, 100)
		if err := parallelMulInto(a, bad, NewMatrix(60, 70), workers); !errors.Is(err, ErrDimensionMismatch) {
			t.Errorf("workers %d: wrong dst shape: %v", workers, err)
		}
		if err := parallelTransposeInto(a, bad, workers); !errors.Is(err, ErrDimensionMismatch) {
			t.Errorf("workers %d: wrong transpose dst: %v", workers, err)
		}
		if err := parallelTransposeInto(a, ok, workers); err != nil {
			t.Errorf("workers %d: valid transpose: %v", workers, err)
		}
	}
}

func BenchmarkLinalg_ParallelMulInto(b *testing.B) {
	rng := rand.New(rand.NewSource(93))
	a := randomMatrix(rng, 600, 400)
	m := randomMatrix(rng, 400, 500)
	dst := NewMatrix(600, 500)
	for _, bench := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"allcores", 0}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := parallelMulInto(a, dst, m, bench.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
