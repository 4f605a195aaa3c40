//go:build amd64 && !purego

#include "textflag.h"

// The avx2 kernel tier: one YMM register holds four rows, lane l the row
// i with i mod 4 == l. Every routine works on the first 4·⌊len(mask)/4⌋
// rows (the Go wrappers of kernels_amd64.go have checked that the columns
// are as long, and finish the rows left), writes nothing but those mask
// lanes or its out record, keeps no state, uses no stack, and clears the
// upper YMM halves before it returns. The arithmetic is that of the generic tier in kernels.go,
// operation for operation: ordered quiet compares, subtract, AND with the
// mask, multiply, then add — never a fused multiply-add.

// Compare predicates of VCMPPD: false when either operand is a NaN.
#define LT_OQ $0x11
#define LE_OQ $0x12
#define GT_OQ $0x1e

// HSUM reduces the four lanes of accumulator Y (whose low half is X) to
// (l0 + l2) + (l1 + l3), left in the low lane of X. TX is a scratch register.
#define HSUM(Y, X, TX) \
	VEXTRACTF128 $1, Y, TX; \
	VADDPD       TX, X, X;  \
	VUNPCKHPD    X, X, TX;  \
	VADDSD       TX, X, X

// HCOUNT adds up the four lane counts of Y (low half X) into the low
// quadword of X.
#define HCOUNT(Y, X, TX) \
	VEXTRACTI128 $1, Y, TX; \
	VPADDQ       TX, X, X;  \
	VPSHUFD      $0xee, X, TX; \
	VPADDQ       TX, X, X

// RECT4 ANDs into mask register M the verdict of the four values at
// OFF(SI)(AX*8) against the bounds broadcast in Y1 (lo) and Y2 (hi): a lane
// survives unless v < lo || v > hi, compared as lo > v and hi < v so that
// v is the memory operand. Y4 and Y5 are scratch.
#define RECT4(OFF, M) \
	VCMPPD  GT_OQ, OFF(SI)(AX*8), Y1, Y4; \
	VCMPPD  LT_OQ, OFF(SI)(AX*8), Y2, Y5; \
	VORPD   Y5, Y4, Y4;                   \
	VANDNPD M, Y4, M

// D2ADD4 adds to the d² register D the squared distance of the four
// values at OFF(SI)(AX*8) from the coordinate broadcast in Y1. Y0 is
// scratch.
#define D2ADD4(OFF, D) \
	VMOVUPD OFF(SI)(AX*8), Y0; \
	VSUBPD  Y1, Y0, Y0;        \
	VMULPD  Y0, Y0, Y0;        \
	VADDPD  Y0, D, D

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func rectMaskAVX2(mask []uint64, cols [][]float64, start int, los, his []float64)
// mask[i] = ^0 unless cols[j][start+i] < los[j] || cols[j][start+i] > his[j]
// for some j < len(los). Thirty-two rows at a time, their verdicts in
// Y8…Y15, then four at a time; the columns are the inner loop, so the
// bounds are broadcast once per 32 rows, every column's stream is read
// side by side and the mask is written once.
TEXT ·rectMaskAVX2(SB), NOSPLIT, $0-104
	MOVQ mask_base+0(FP), DI
	MOVQ mask_len+8(FP), CX
	MOVQ cols_base+24(FP), R8
	MOVQ start+48(FP), BX
	MOVQ los_base+56(FP), R9
	MOVQ los_len+64(FP), R11
	MOVQ his_base+80(FP), R10
	ANDQ $-4, CX
	SHLQ $3, BX                      // start, in bytes
	XORQ AX, AX
	JMP  check32

loop32:
	VPCMPEQQ Y8, Y8, Y8              // every row matches until a column rejects it
	VPCMPEQQ Y9, Y9, Y9
	VPCMPEQQ Y10, Y10, Y10
	VPCMPEQQ Y11, Y11, Y11
	VPCMPEQQ Y12, Y12, Y12
	VPCMPEQQ Y13, Y13, Y13
	VPCMPEQQ Y14, Y14, Y14
	VPCMPEQQ Y15, Y15, Y15
	MOVQ     R8, R12                 // &cols[j]
	XORQ     DX, DX                  // j
	JMP      dimcheck32

dim32:
	MOVQ         (R12), SI
	ADDQ         BX, SI              // &cols[j][start]
	VBROADCASTSD (R9)(DX*8), Y1
	VBROADCASTSD (R10)(DX*8), Y2
	RECT4(0, Y8)
	RECT4(32, Y9)
	RECT4(64, Y10)
	RECT4(96, Y11)
	RECT4(128, Y12)
	RECT4(160, Y13)
	RECT4(192, Y14)
	RECT4(224, Y15)
	ADDQ         $24, R12
	INCQ         DX

dimcheck32:
	CMPQ    DX, R11
	JLT     dim32
	VMOVDQU Y8, 0(DI)(AX*8)
	VMOVDQU Y9, 32(DI)(AX*8)
	VMOVDQU Y10, 64(DI)(AX*8)
	VMOVDQU Y11, 96(DI)(AX*8)
	VMOVDQU Y12, 128(DI)(AX*8)
	VMOVDQU Y13, 160(DI)(AX*8)
	VMOVDQU Y14, 192(DI)(AX*8)
	VMOVDQU Y15, 224(DI)(AX*8)
	ADDQ    $32, AX

check32:
	LEAQ 32(AX), R13
	CMPQ R13, CX
	JLE  loop32
	JMP  check4

loop4:
	VPCMPEQQ Y8, Y8, Y8
	MOVQ     R8, R12
	XORQ     DX, DX
	JMP      dimcheck4

dim4:
	MOVQ         (R12), SI
	ADDQ         BX, SI
	VBROADCASTSD (R9)(DX*8), Y1
	VBROADCASTSD (R10)(DX*8), Y2
	RECT4(0, Y8)
	ADDQ         $24, R12
	INCQ         DX

dimcheck4:
	CMPQ    DX, R11
	JLT     dim4
	VMOVDQU Y8, (DI)(AX*8)
	ADDQ    $4, AX

check4:
	CMPQ AX, CX
	JLT  loop4
	VZEROUPPER
	RET

// func sphereMaskAVX2(mask []uint64, cols [][]float64, start int, center []float64, r2 float64)
// mask[i] = ^0 if Σ_j (cols[j][start+i] - center[j])² <= r2, the sum
// added to a +0 from column 0 on; else 0. Laid out as rectMaskAVX2, the
// d² of 32 rows in Y8…Y15.
TEXT ·sphereMaskAVX2(SB), NOSPLIT, $0-88
	MOVQ         mask_base+0(FP), DI
	MOVQ         mask_len+8(FP), CX
	MOVQ         cols_base+24(FP), R8
	MOVQ         start+48(FP), BX
	MOVQ         center_base+56(FP), R9
	MOVQ         center_len+64(FP), R11
	VBROADCASTSD r2+80(FP), Y2
	ANDQ         $-4, CX
	SHLQ         $3, BX
	XORQ         AX, AX
	JMP          check32

loop32:
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	MOVQ   R8, R12
	XORQ   DX, DX
	JMP    dimcheck32

dim32:
	MOVQ         (R12), SI
	ADDQ         BX, SI
	VBROADCASTSD (R9)(DX*8), Y1
	D2ADD4(0, Y8)
	D2ADD4(32, Y9)
	D2ADD4(64, Y10)
	D2ADD4(96, Y11)
	D2ADD4(128, Y12)
	D2ADD4(160, Y13)
	D2ADD4(192, Y14)
	D2ADD4(224, Y15)
	ADDQ         $24, R12
	INCQ         DX

dimcheck32:
	CMPQ    DX, R11
	JLT     dim32
	VCMPPD  LE_OQ, Y2, Y8, Y8        // d² <= r²
	VCMPPD  LE_OQ, Y2, Y9, Y9
	VCMPPD  LE_OQ, Y2, Y10, Y10
	VCMPPD  LE_OQ, Y2, Y11, Y11
	VCMPPD  LE_OQ, Y2, Y12, Y12
	VCMPPD  LE_OQ, Y2, Y13, Y13
	VCMPPD  LE_OQ, Y2, Y14, Y14
	VCMPPD  LE_OQ, Y2, Y15, Y15
	VMOVDQU Y8, 0(DI)(AX*8)
	VMOVDQU Y9, 32(DI)(AX*8)
	VMOVDQU Y10, 64(DI)(AX*8)
	VMOVDQU Y11, 96(DI)(AX*8)
	VMOVDQU Y12, 128(DI)(AX*8)
	VMOVDQU Y13, 160(DI)(AX*8)
	VMOVDQU Y14, 192(DI)(AX*8)
	VMOVDQU Y15, 224(DI)(AX*8)
	ADDQ    $32, AX

check32:
	LEAQ 32(AX), R13
	CMPQ R13, CX
	JLE  loop32
	JMP  check4

loop4:
	VXORPD Y8, Y8, Y8
	MOVQ   R8, R12
	XORQ   DX, DX
	JMP    dimcheck4

dim4:
	MOVQ         (R12), SI
	ADDQ         BX, SI
	VBROADCASTSD (R9)(DX*8), Y1
	D2ADD4(0, Y8)
	ADDQ         $24, R12
	INCQ         DX

dimcheck4:
	CMPQ    DX, R11
	JLT     dim4
	VCMPPD  LE_OQ, Y2, Y8, Y8
	VMOVDQU Y8, (DI)(AX*8)
	ADDQ    $4, AX

check4:
	CMPQ AX, CX
	JLT  loop4
	VZEROUPPER
	RET

// func countAVX2(mask []uint64) int64
// The number of lanes with the top bit set.
TEXT ·countAVX2(SB), NOSPLIT, $0-32
	MOVQ  mask_base+0(FP), DI
	MOVQ  mask_len+8(FP), CX
	VPXOR Y0, Y0, Y0
	ANDQ  $-4, CX
	XORQ  AX, AX
	JMP   check

loop:
	VMOVDQU (DI)(AX*8), Y1
	VPSRLQ  $63, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ    $4, AX

check:
	CMPQ AX, CX
	JLT  loop
	HCOUNT(Y0, X0, X1)
	VMOVQ X0, ret+24(FP)
	VZEROUPPER
	RET

// func sumAVX2(mask []uint64, x []float64, out *runSums)
// out.n, out.sum = the matched rows, Σ x[i] & mask[i].
TEXT ·sumAVX2(SB), NOSPLIT, $0-56
	MOVQ   mask_base+0(FP), DI
	MOVQ   mask_len+8(FP), CX
	MOVQ   x_base+24(FP), SI
	MOVQ   out+48(FP), BX
	VXORPD Y0, Y0, Y0                // Σx
	VPXOR  Y15, Y15, Y15             // matched rows
	ANDQ   $-4, CX
	XORQ   AX, AX
	JMP    check

loop:
	VMOVUPD (DI)(AX*8), Y5           // mask
	VANDPD  (SI)(AX*8), Y5, Y1
	VADDPD  Y1, Y0, Y0
	VPSRLQ  $63, Y5, Y5
	VPADDQ  Y5, Y15, Y15
	ADDQ    $4, AX

check:
	CMPQ AX, CX
	JLT  loop
	HCOUNT(Y15, X15, X14)
	HSUM(Y0, X0, X14)
	VMOVQ  X15, 0(BX)                // runSums.n
	VMOVSD X0, 8(BX)                 // runSums.sum
	VZEROUPPER
	RET

// func fold1AVX2(mask []uint64, x []float64, cx float64, out *runSums)
// out.n, out.sum, out.sx, out.sxx = the matched rows, Σx, Σ(x-cx),
// Σ(x-cx)² under the mask.
TEXT ·fold1AVX2(SB), NOSPLIT, $0-64
	MOVQ         mask_base+0(FP), DI
	MOVQ         mask_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD cx+48(FP), Y3
	MOVQ         out+56(FP), BX
	VXORPD       Y0, Y0, Y0          // Σx
	VXORPD       Y1, Y1, Y1          // Σ(x-cx)
	VXORPD       Y2, Y2, Y2          // Σ(x-cx)²
	VPXOR        Y15, Y15, Y15       // matched rows
	ANDQ         $-4, CX
	XORQ         AX, AX
	JMP          check

loop:
	VMOVUPD (SI)(AX*8), Y4           // x
	VMOVUPD (DI)(AX*8), Y5           // mask
	VSUBPD  Y3, Y4, Y6               // x - cx
	VANDPD  Y5, Y4, Y4
	VANDPD  Y5, Y6, Y6
	VADDPD  Y4, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y2, Y2
	VPSRLQ  $63, Y5, Y5
	VPADDQ  Y5, Y15, Y15
	ADDQ    $4, AX

check:
	CMPQ AX, CX
	JLT  loop
	HCOUNT(Y15, X15, X14)
	HSUM(Y0, X0, X14)
	HSUM(Y1, X1, X14)
	HSUM(Y2, X2, X14)
	VMOVQ  X15, 0(BX)                // runSums.n
	VMOVSD X0, 8(BX)                 // runSums.sum
	VMOVSD X1, 24(BX)                // runSums.sx
	VMOVSD X2, 40(BX)                // runSums.sxx
	VZEROUPPER
	RET

// func fold2AVX2(mask []uint64, x, y []float64, cx, cy float64, out *runSums)
// The matched rows and all seven sums of out over (x, y) in the frame
// shifted by (cx, cy), under the mask.
TEXT ·fold2AVX2(SB), NOSPLIT, $0-96
	MOVQ         mask_base+0(FP), DI
	MOVQ         mask_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	MOVQ         y_base+48(FP), DX
	VBROADCASTSD cx+72(FP), Y7
	VBROADCASTSD cy+80(FP), Y8
	MOVQ         out+88(FP), BX
	VXORPD       Y0, Y0, Y0          // Σx
	VXORPD       Y1, Y1, Y1          // Σy
	VXORPD       Y2, Y2, Y2          // Σdx
	VXORPD       Y3, Y3, Y3          // Σdy
	VXORPD       Y4, Y4, Y4          // Σdx²
	VXORPD       Y5, Y5, Y5          // Σdy²
	VXORPD       Y6, Y6, Y6          // Σdx·dy
	VPXOR        Y15, Y15, Y15       // matched rows
	ANDQ         $-4, CX
	XORQ         AX, AX
	JMP          check

loop:
	VMOVUPD (SI)(AX*8), Y9           // x
	VMOVUPD (DX)(AX*8), Y10          // y
	VMOVUPD (DI)(AX*8), Y11          // mask
	VSUBPD  Y7, Y9, Y12              // x - cx
	VSUBPD  Y8, Y10, Y13             // y - cy
	VANDPD  Y11, Y9, Y9
	VANDPD  Y11, Y10, Y10
	VANDPD  Y11, Y12, Y12            // dx
	VANDPD  Y11, Y13, Y13            // dy
	VPSRLQ  $63, Y11, Y11
	VPADDQ  Y11, Y15, Y15
	VADDPD  Y9, Y0, Y0
	VADDPD  Y10, Y1, Y1
	VADDPD  Y12, Y2, Y2
	VADDPD  Y13, Y3, Y3
	VMULPD  Y12, Y12, Y14
	VADDPD  Y14, Y4, Y4
	VMULPD  Y13, Y13, Y14
	VADDPD  Y14, Y5, Y5
	VMULPD  Y13, Y12, Y14
	VADDPD  Y14, Y6, Y6
	ADDQ    $4, AX

check:
	CMPQ AX, CX
	JLT  loop
	HCOUNT(Y15, X15, X14)
	HSUM(Y0, X0, X14)
	HSUM(Y1, X1, X14)
	HSUM(Y2, X2, X14)
	HSUM(Y3, X3, X14)
	HSUM(Y4, X4, X14)
	HSUM(Y5, X5, X14)
	HSUM(Y6, X6, X14)
	VMOVQ  X15, 0(BX)                // runSums.n
	VMOVSD X0, 8(BX)                 // runSums.sum
	VMOVSD X1, 16(BX)                // runSums.sumY
	VMOVSD X2, 24(BX)                // runSums.sx
	VMOVSD X3, 32(BX)                // runSums.sy
	VMOVSD X4, 40(BX)                // runSums.sxx
	VMOVSD X5, 48(BX)                // runSums.syy
	VMOVSD X6, 56(BX)                // runSums.sxy
	VZEROUPPER
	RET
