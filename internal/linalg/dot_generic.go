//go:build !amd64

package linalg

// The non-amd64 build always takes the portable Go kernels.
var (
	useAsm    = false
	useAsmF32 = false
)

func dotVecAsm(a, b *float64, n int) float64 {
	panic("linalg: dotVecAsm without assembly support")
}

func dot1x4Asm(a, b *float64, ldb, n int, out *[4]float64) {
	panic("linalg: dot1x4Asm without assembly support")
}

func dotVecAsm32(a, b *float32, n int) float32 {
	panic("linalg: dotVecAsm32 without assembly support")
}

func dot1x4Asm32(a, b *float32, ldb, n int, out *[4]float32) {
	panic("linalg: dot1x4Asm32 without assembly support")
}

func residualLanesAsm(v, w, h *float64, ldh, r, n int, lanes *[4]float64) {
	panic("linalg: residualLanesAsm without assembly support")
}

func residualLanesAsm32(v, w, h *float32, ldh, r, n int, lanes *[4]float64) {
	panic("linalg: residualLanesAsm32 without assembly support")
}
