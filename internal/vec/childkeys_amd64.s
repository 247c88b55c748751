#include "textflag.h"

// Constants of childKeysAVX2Asm, one YMM vector each.
DATA childKeysConst<>+0(SB)/8, $0
DATA childKeysConst<>+8(SB)/8, $1
DATA childKeysConst<>+16(SB)/8, $2
DATA childKeysConst<>+24(SB)/8, $3 // lane numbers: the tail mask and the row index
DATA childKeysConst<>+32(SB)/4, $0
DATA childKeysConst<>+36(SB)/4, $2
DATA childKeysConst<>+40(SB)/4, $4
DATA childKeysConst<>+44(SB)/4, $6
DATA childKeysConst<>+48(SB)/4, $1
DATA childKeysConst<>+52(SB)/4, $3
DATA childKeysConst<>+56(SB)/4, $5
DATA childKeysConst<>+60(SB)/4, $7 // VPERMPS order: four lo, then four hi
DATA childKeysConst<>+64(SB)/8, $0x7fffffffffffffff
DATA childKeysConst<>+72(SB)/8, $0x7fffffffffffffff
DATA childKeysConst<>+80(SB)/8, $0x7fffffffffffffff
DATA childKeysConst<>+88(SB)/8, $0x7fffffffffffffff // |x| clears the sign bit, as math.Abs
DATA childKeysConst<>+96(SB)/8, $0x3fe0000000000000
DATA childKeysConst<>+104(SB)/8, $0x3fe0000000000000
DATA childKeysConst<>+112(SB)/8, $0x3fe0000000000000
DATA childKeysConst<>+120(SB)/8, $0x3fe0000000000000 // 0.5
DATA childKeysConst<>+128(SB)/8, $0x3feffffffeed1f41
DATA childKeysConst<>+136(SB)/8, $0x3feffffffeed1f41
DATA childKeysConst<>+144(SB)/8, $0x3feffffffeed1f41
DATA childKeysConst<>+152(SB)/8, $0x3feffffffeed1f41 // 1−2·lbEps (selDrop)
DATA childKeysConst<>+160(SB)/8, $0x3fefffffff768fa1
DATA childKeysConst<>+168(SB)/8, $0x3fefffffff768fa1
DATA childKeysConst<>+176(SB)/8, $0x3fefffffff768fa1
DATA childKeysConst<>+184(SB)/8, $0x3fefffffff768fa1 // 1−lbEps
GLOBL childKeysConst<>(SB), RODATA|NOPTR, $192

// func childKeysAVX2Asm(dst, centers, radii []float64, box []float32, q []float64, qr, dk, thr2, next float64) int
//
// MinDistSphereBlock then RaiseToBoxBlock, four children per pass with one
// child in each lane. Per lane, the sphere sum and the box sum add their
// coordinates in order, with VMULPD and VADDPD (no FMA), so every lane
// rounds as the scalar loops do. Coordinate j of the group's children
// is one gather from centers and one from box: both hold one qword per
// (child, coordinate), at qword index i·d + j. A group of fewer than four
// children masks its gathers, its radius load and its store. The caller
// passes thr2 = (dk+qr)² and next = math.Nextafter(dk, +Inf), and keeps
// qr >= 0 and dk >= 0.
//
// Registers: DI dst, SI centers, DX radii, R8 box, BX q, R10 d, CX
// children left, R11 the group stride 4·d·8; per coordinate loop R12 the
// block pointer, R13 the query pointer, R9 coordinates left. Y15 zero,
// Y14 qr, Y13 dk, Y12 thr2, Y11 next, Y10 the qword index [0, d, 2d, 3d],
// Y9 the sign mask, Y8 the VPERMPS order, Y7 the rejects per lane; per
// group Y0 the lane mask, Y1 the gather's mask copy (a gather zeroes it),
// Y2 the gathered qwords, Y3 a temporary, Y4 a sum, Y5 the sphere key, Y6
// the LE lanes (a temporary inside the box loop).
TEXT ·childKeysAVX2Asm(SB), NOSPLIT, $0-160
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ centers_base+24(FP), SI
	MOVQ radii_base+48(FP), DX
	MOVQ box_base+72(FP), R8
	MOVQ q_base+96(FP), BX
	MOVQ q_len+104(FP), R10
	VBROADCASTSD qr+120(FP), Y14
	VBROADCASTSD dk+128(FP), Y13
	VBROADCASTSD thr2+136(FP), Y12
	VBROADCASTSD next+144(FP), Y11
	VMOVQ        R10, X10
	VPBROADCASTQ X10, Y10
	VPMULUDQ     childKeysConst<>+0(SB), Y10, Y10
	VMOVDQU      childKeysConst<>+64(SB), Y9
	VMOVDQU      childKeysConst<>+32(SB), Y8
	VPXOR        Y7, Y7, Y7
	VXORPD       Y15, Y15, Y15
	MOVQ R10, R11
	SHLQ $5, R11

group:
	TESTQ CX, CX
	JLE   done
	VMOVQ        CX, X0
	VPBROADCASTQ X0, Y0
	VPCMPGTQ     childKeysConst<>+0(SB), Y0, Y0 // lane < children left
	VXORPD Y2, Y2, Y2 // a gather keeps masked lanes: no stale value, no chain across groups
	VXORPD Y4, Y4, Y4
	MOVQ SI, R12
	MOVQ BX, R13
	MOVQ R10, R9

sphere:
	VMOVDQU      Y0, Y1
	VGATHERQPD   Y1, (R12)(Y10*8), Y2
	VBROADCASTSD (R13), Y3
	VSUBPD       Y3, Y2, Y3 // c − q
	VMULPD       Y3, Y3, Y3
	VADDPD       Y3, Y4, Y4
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ R9
	JNZ  sphere

	// m = √s − r − qr, and max(m, 0) maps NaN and −0 to +0 as `if m > 0`.
	VSQRTPD    Y4, Y4
	VMASKMOVPD (DX), Y0, Y3
	VSUBPD     Y3, Y4, Y4
	VSUBPD     Y14, Y4, Y4
	VMAXPD     Y15, Y4, Y5

	// The box step runs for the lanes whose sphere key is <= dk.
	VCMPPD    $0x12, Y13, Y5, Y6 // LE_OQ
	VANDPD    Y0, Y6, Y6
	VMOVMSKPD Y6, AX
	TESTQ     AX, AX
	JZ        store
	VXORPD Y4, Y4, Y4
	MOVQ R8, R12
	MOVQ BX, R13
	MOVQ R10, R9

box:
	VMOVDQU      Y0, Y1
	VGATHERQPD   Y1, (R12)(Y10*8), Y2 // four (lo, hi) float32 pairs
	VPERMPS      Y2, Y8, Y1
	VCVTPS2PD    X1, Y3                 // lo
	VEXTRACTF128 $1, Y1, X1
	VCVTPS2PD    X1, Y1                 // hi
	VBROADCASTSD (R13), Y6
	VSUBPD       Y6, Y3, Y3             // x = lo − q
	VSUBPD       Y1, Y6, Y1             // y = q − hi
	VANDPD       Y9, Y3, Y6
	VADDPD       Y6, Y3, Y3             // x + |x|
	VANDPD       Y9, Y1, Y6
	VADDPD       Y6, Y1, Y1             // y + |y|
	VADDPD       Y1, Y3, Y3
	VMULPD       childKeysConst<>+96(SB), Y3, Y3
	VMULPD       Y3, Y3, Y3
	VADDPD       Y3, Y4, Y4
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ R9
	JNZ  box

	// Y6 was a temporary in the loop: take the LE lanes again.
	VCMPPD  $0x12, Y13, Y5, Y6
	VANDPD  Y0, Y6, Y6
	VMULPD  childKeysConst<>+128(SB), Y4, Y1
	VCMPPD  $0x1e, Y12, Y1, Y1 // GT_OQ: s·(1−2·lbEps) > thr², false on NaN
	VANDPD  Y6, Y1, Y1
	VPSUBQ  Y1, Y7, Y7         // a true lane is −1
	VSQRTPD Y4, Y4
	VMULPD  childKeysConst<>+160(SB), Y4, Y4
	VSUBPD  Y14, Y4, Y4
	VMAXPD  Y5, Y4, Y4         // m > key ? m : key, NaN keeps the key
	VBLENDVPD Y6, Y4, Y5, Y5
	VBLENDVPD Y1, Y11, Y5, Y5

store:
	VMASKMOVPD Y5, Y0, (DI)
	ADDQ R11, SI
	ADDQ R11, R8
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  group

done:
	VEXTRACTI128 $1, Y7, X1
	VPADDQ       X1, X7, X7
	VPSHUFD      $0x4e, X7, X1
	VPADDQ       X1, X7, X7
	VMOVQ        X7, AX
	VZEROUPPER
	MOVQ AX, ret+152(FP)
	RET
