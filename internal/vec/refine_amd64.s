#include "textflag.h"

// func refineF32AVX2(sel []int32, sr, centers []float32, q []float64, dkqr float64) int
//
// Per item i = sel[k]: s = Σ_j (float64(centers[i*d+j]) − q[j])², four
// coordinates per step, then a 2-wide and a 1-wide tail; thr = dkqr +
// float64(sr[i]); the item survives unless s·(1−2·lbEps) > thr². sel[cnt]
// = i is stored unconditionally and cnt grows by the keep flag, so the
// compaction takes no branch.
//
// Registers: DI sel, CX m, R8 k, R9 cnt, SI sr, DX centers, BX q, R10 d;
// per item AX i, R12 center pointer, R13 query pointer, R11 coordinates
// left. X14 dkqr, X13 the shave 1−2·lbEps, X15 zero (the upper half every
// VCVTSS2SD merges from, so the tail starts no chain across items).
TEXT ·refineF32AVX2(SB), NOSPLIT, $0-112
	MOVQ sel_base+0(FP), DI
	MOVQ sel_len+8(FP), CX
	MOVQ sr_base+24(FP), SI
	MOVQ centers_base+48(FP), DX
	MOVQ q_base+72(FP), BX
	MOVQ q_len+80(FP), R10
	VMOVSD dkqr+96(FP), X14
	MOVQ $0x3feffffffeed1f41, AX // math.Float64bits(1 - 2*lbEps), quant.go's selDrop constant
	VMOVQ AX, X13
	VXORPD X15, X15, X15
	XORQ R8, R8
	XORQ R9, R9

item:
	CMPQ R8, CX
	JGE  done
	MOVLQSX (DI)(R8*4), AX

	// thr² = (dkqr + sr[i])²
	VCVTSS2SD (SI)(AX*4), X15, X4
	VADDSD    X14, X4, X4
	VMULSD    X4, X4, X4

	MOVQ  AX, R12
	IMULQ R10, R12
	LEAQ  (DX)(R12*4), R12
	MOVQ  BX, R13
	MOVQ  R10, R11
	VXORPD Y0, Y0, Y0

quad:
	CMPQ R11, $4
	JLT  reduce
	VCVTPS2PD   (R12), Y1
	VSUBPD      (R13), Y1, Y1
	VFMADD231PD Y1, Y1, Y0
	ADDQ $16, R12
	ADDQ $32, R13
	SUBQ $4, R11
	JMP  quad

reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	CMPQ R11, $2
	JLT  pairdone
	VCVTPS2PD   (R12), X1
	VSUBPD      (R13), X1, X1
	VFMADD231PD X1, X1, X0
	ADDQ $8, R12
	ADDQ $16, R13
	SUBQ $2, R11

pairdone:
	VUNPCKHPD X0, X0, X1
	VADDSD    X1, X0, X0
	TESTQ R11, R11
	JZ    decide
	VCVTSS2SD   (R12), X15, X1
	VSUBSD      (R13), X1, X1
	VFMADD231SD X1, X1, X0

decide:
	VMULSD X13, X0, X0
	MOVL   AX, (DI)(R9*4)
	XORQ   R12, R12
	VUCOMISD X4, X0 // flags of s·shave against thr²; unordered sets CF and ZF
	SETLS  R12B     // keep unless s·shave > thr²: a NaN keeps
	ADDQ   R12, R9
	INCQ   R8
	JMP    item

done:
	VZEROUPPER
	MOVQ R9, ret+104(FP)
	RET

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
