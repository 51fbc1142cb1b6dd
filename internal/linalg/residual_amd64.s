#include "textflag.h"

// The AVX2 kernels of the fused residual ‖v_i − (w·h)_i‖², one row per
// call. They reproduce the portable loop of residualLanes operation for
// operation — every product and every sum is a separate VMULP/VADDP, never
// an FMA, so each rounds exactly as the Go code's scalar multiply and add
// do — and differ only in width: a vector of columns runs the ascending-k
// accumulation p = (((0 + w0·h0) + w1·h1) + …) in registers (no chunk
// buffer), subtracts p + w_last·h_last from v, and adds the squares onto
// one YMM accumulator whose four float64 lanes are the portable loop's four
// partial sums keyed by column mod 4. Vectors are added in ascending column
// order, so each lane sees its columns in the order the Go loop visits
// them. Blocks of four vectors share one broadcast of w_k per k; a
// one-vector loop takes what is left. n must be a multiple of the vector
// width (4 float64, 8 float32); the caller folds the lanes and runs the
// leftover columns through the portable loop.

// func residualLanesAsm(v, w, h *float64, ldh, r, n int, lanes *[4]float64)
TEXT ·residualLanesAsm(SB), NOSPLIT, $0-56
	MOVQ v+0(FP), SI
	MOVQ w+8(FP), BX
	MOVQ h+16(FP), DI
	MOVQ ldh+24(FP), DX
	SHLQ $3, DX              // row stride of h in bytes
	MOVQ r+32(FP), R8
	DECQ R8                  // accumulate passes before the last term
	MOVQ n+40(FP), CX
	MOVQ lanes+48(FP), R12
	VXORPD Y15, Y15, Y15     // the four lane sums
	XORQ AX, AX              // column

block:
	LEAQ 16(AX), R13
	CMPQ R13, CX
	JGT  single
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (DI)(AX*8), R9      // h[0][column]
	MOVQ BX, R10             // w[0]
	MOVQ R8, R11
	TESTQ R11, R11
	JZ   blocklast

blockk:
	VBROADCASTSD (R10), Y8
	VMULPD (R9), Y8, Y4
	VMULPD 32(R9), Y8, Y5
	VMULPD 64(R9), Y8, Y6
	VMULPD 96(R9), Y8, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	ADDQ DX, R9
	ADDQ $8, R10
	DECQ R11
	JNZ  blockk

blocklast:
	VBROADCASTSD (R10), Y8
	VMULPD (R9), Y8, Y4
	VMULPD 32(R9), Y8, Y5
	VMULPD 64(R9), Y8, Y6
	VMULPD 96(R9), Y8, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VMOVUPD (SI)(AX*8), Y9
	VMOVUPD 32(SI)(AX*8), Y10
	VMOVUPD 64(SI)(AX*8), Y11
	VMOVUPD 96(SI)(AX*8), Y12
	VSUBPD Y0, Y9, Y0        // v − (p + w_last·h_last)
	VSUBPD Y1, Y10, Y1
	VSUBPD Y2, Y11, Y2
	VSUBPD Y3, Y12, Y3
	VMULPD Y0, Y0, Y0
	VMULPD Y1, Y1, Y1
	VMULPD Y2, Y2, Y2
	VMULPD Y3, Y3, Y3
	VADDPD Y0, Y15, Y15
	VADDPD Y1, Y15, Y15
	VADDPD Y2, Y15, Y15
	VADDPD Y3, Y15, Y15
	ADDQ $16, AX
	JMP  block

single:
	LEAQ 4(AX), R13
	CMPQ R13, CX
	JGT  done
	VXORPD Y0, Y0, Y0
	LEAQ (DI)(AX*8), R9
	MOVQ BX, R10
	MOVQ R8, R11
	TESTQ R11, R11
	JZ   singlelast

singlek:
	VBROADCASTSD (R10), Y8
	VMULPD (R9), Y8, Y4
	VADDPD Y4, Y0, Y0
	ADDQ DX, R9
	ADDQ $8, R10
	DECQ R11
	JNZ  singlek

singlelast:
	VBROADCASTSD (R10), Y8
	VMULPD (R9), Y8, Y4
	VADDPD Y4, Y0, Y0
	VMOVUPD (SI)(AX*8), Y9
	VSUBPD Y0, Y9, Y0
	VMULPD Y0, Y0, Y0
	VADDPD Y0, Y15, Y15
	ADDQ $4, AX
	JMP  single

done:
	VMOVUPD Y15, (R12)
	VZEROUPPER
	RET

// func residualLanesAsm32(v, w, h *float32, ldh, r, n int, lanes *[4]float64)
//
// The products, sums and the difference run at float32, eight columns to a
// vector; each half of the eight differences is widened exactly
// (VCVTPS2PD), squared and added in float64 — low half (columns ≡ 0..3
// mod 8) first, then the high half — which is the order the portable loop
// feeds its four float64 sums.
TEXT ·residualLanesAsm32(SB), NOSPLIT, $0-56
	MOVQ v+0(FP), SI
	MOVQ w+8(FP), BX
	MOVQ h+16(FP), DI
	MOVQ ldh+24(FP), DX
	SHLQ $2, DX              // row stride of h in bytes
	MOVQ r+32(FP), R8
	DECQ R8                  // accumulate passes before the last term
	MOVQ n+40(FP), CX
	MOVQ lanes+48(FP), R12
	VXORPD Y15, Y15, Y15     // the four lane sums (float64)
	XORQ AX, AX              // column

block32:
	LEAQ 32(AX), R13
	CMPQ R13, CX
	JGT  single32
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ (DI)(AX*4), R9      // h[0][column]
	MOVQ BX, R10             // w[0]
	MOVQ R8, R11
	TESTQ R11, R11
	JZ   blocklast32

blockk32:
	VBROADCASTSS (R10), Y8
	VMULPS (R9), Y8, Y4
	VMULPS 32(R9), Y8, Y5
	VMULPS 64(R9), Y8, Y6
	VMULPS 96(R9), Y8, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	ADDQ DX, R9
	ADDQ $4, R10
	DECQ R11
	JNZ  blockk32

blocklast32:
	VBROADCASTSS (R10), Y8
	VMULPS (R9), Y8, Y4
	VMULPS 32(R9), Y8, Y5
	VMULPS 64(R9), Y8, Y6
	VMULPS 96(R9), Y8, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	VMOVUPS (SI)(AX*4), Y9
	VMOVUPS 32(SI)(AX*4), Y10
	VMOVUPS 64(SI)(AX*4), Y11
	VMOVUPS 96(SI)(AX*4), Y12
	VSUBPS Y0, Y9, Y0        // v − (p + w_last·h_last)
	VSUBPS Y1, Y10, Y1
	VSUBPS Y2, Y11, Y2
	VSUBPS Y3, Y12, Y3

	VCVTPS2PD X0, Y4
	VEXTRACTF128 $1, Y0, X5
	VCVTPS2PD X5, Y5
	VMULPD Y4, Y4, Y4
	VMULPD Y5, Y5, Y5
	VADDPD Y4, Y15, Y15
	VADDPD Y5, Y15, Y15

	VCVTPS2PD X1, Y4
	VEXTRACTF128 $1, Y1, X5
	VCVTPS2PD X5, Y5
	VMULPD Y4, Y4, Y4
	VMULPD Y5, Y5, Y5
	VADDPD Y4, Y15, Y15
	VADDPD Y5, Y15, Y15

	VCVTPS2PD X2, Y4
	VEXTRACTF128 $1, Y2, X5
	VCVTPS2PD X5, Y5
	VMULPD Y4, Y4, Y4
	VMULPD Y5, Y5, Y5
	VADDPD Y4, Y15, Y15
	VADDPD Y5, Y15, Y15

	VCVTPS2PD X3, Y4
	VEXTRACTF128 $1, Y3, X5
	VCVTPS2PD X5, Y5
	VMULPD Y4, Y4, Y4
	VMULPD Y5, Y5, Y5
	VADDPD Y4, Y15, Y15
	VADDPD Y5, Y15, Y15

	ADDQ $32, AX
	JMP  block32

single32:
	LEAQ 8(AX), R13
	CMPQ R13, CX
	JGT  done32
	VXORPS Y0, Y0, Y0
	LEAQ (DI)(AX*4), R9
	MOVQ BX, R10
	MOVQ R8, R11
	TESTQ R11, R11
	JZ   singlelast32

singlek32:
	VBROADCASTSS (R10), Y8
	VMULPS (R9), Y8, Y4
	VADDPS Y4, Y0, Y0
	ADDQ DX, R9
	ADDQ $4, R10
	DECQ R11
	JNZ  singlek32

singlelast32:
	VBROADCASTSS (R10), Y8
	VMULPS (R9), Y8, Y4
	VADDPS Y4, Y0, Y0
	VMOVUPS (SI)(AX*4), Y9
	VSUBPS Y0, Y9, Y0
	VCVTPS2PD X0, Y4
	VEXTRACTF128 $1, Y0, X5
	VCVTPS2PD X5, Y5
	VMULPD Y4, Y4, Y4
	VMULPD Y5, Y5, Y5
	VADDPD Y4, Y15, Y15
	VADDPD Y5, Y15, Y15
	ADDQ $8, AX
	JMP  single32

done32:
	VMOVUPD Y15, (R12)
	VZEROUPPER
	RET
