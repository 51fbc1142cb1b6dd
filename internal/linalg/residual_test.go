package linalg

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// fuseProbe holds the operands of compilerFusesMulAdd where the compiler
// cannot fold them: the product 1 + 2⁻²⁶ + 2⁻⁵⁴ rounds to 1 + 2⁻²⁶, so the
// expression below is 0 when the multiply and the add round separately and
// 2⁻⁵⁴ when they are fused.
var fuseProbe = [3]float64{1 + 0x1p-27, 1 + 0x1p-27, -(1 + 0x1p-26)}

// compilerFusesMulAdd reports whether this build compiles x*y + z to one
// fused instruction (arm64 and friends, GOAMD64=v3), in which case the
// portable residual loop rounds differently from the assembly kernels and
// the two are not comparable bit for bit.
func compilerFusesMulAdd() bool {
	return fuseProbe[0]*fuseProbe[1]+fuseProbe[2] != 0
}

// signedMat fills a rows×cols matrix with values in [−scale, scale) and a
// sprinkling of exact zeros.
func signedMat[F Float](rng *rand.Rand, rows, cols int, scale float64) *Mat[F] {
	m := NewMat[F](rows, cols)
	for i := range m.Data {
		if rng.Intn(8) != 0 {
			m.Data[i] = F((2*rng.Float64() - 1) * scale)
		}
	}
	return m
}

// TestResidualAsmMatchesPortable: the assembly residual kernels return the
// bits of the portable loop, at both element types — for column counts
// below one vector, every remainder of the vector width (4 and 8) and of
// the four-vector block (16 and 32), counts on either side of one and two
// residualChunks, ranks with no accumulate pass (1), below, at and past
// the four-k pass, rows in more than one strip, and negative and zero
// entries.
func TestResidualAsmMatchesPortable(t *testing.T) {
	if compilerFusesMulAdd() {
		t.Skip("this build fuses multiply-adds in the portable loop; the kernels never do")
	}
	t.Run("float64", func(t *testing.T) { testResidualAsmMatchesPortable[float64](t, &useAsm) })
	t.Run("float32", func(t *testing.T) { testResidualAsmMatchesPortable[float32](t, &useAsmF32) })
}

func testResidualAsmMatchesPortable[F Float](t *testing.T, gate *bool) {
	if !*gate {
		t.Skip("assembly path not active on this machine")
	}
	defer func() { *gate = true }()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(426))
	cols := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 15, 16, 17, 23, 24, 31, 32, 33, 36, 39, 40, 41,
		63, 64, 65, 255, 256, 257, 511, 512, 513, 2016}
	for _, m := range cols {
		for _, r := range []int{1, 2, 3, 4, 5, 6, 9} {
			n := 3
			if m == 33 || m == 257 {
				n = 35
			}
			v := signedMat[F](rng, n, m, 10)
			w := signedMat[F](rng, n, r, 2)
			h := signedMat[F](rng, r, m, 2)
			if m == 40 {
				// A row of zeros and a zero weight row.
				clear(v.Data[:m])
				clear(w.Data[r : 2*r])
			}
			asm, portable := make([]float64, n), make([]float64, n)
			*gate = true
			if err := RowResidualsSquaredIntoCtx(ctx, asm, v, w, h, 1); err != nil {
				t.Fatal(err)
			}
			*gate = false
			if err := RowResidualsSquaredIntoCtx(ctx, portable, v, w, h, 2); err != nil {
				t.Fatal(err)
			}
			for i := range asm {
				if math.Float64bits(asm[i]) != math.Float64bits(portable[i]) {
					t.Fatalf("%d columns, rank %d: residual[%d] = %x from the assembly kernel, %x from the portable loop (%g vs %g)",
						m, r, i, math.Float64bits(asm[i]), math.Float64bits(portable[i]), asm[i], portable[i])
				}
			}
		}
	}
}
