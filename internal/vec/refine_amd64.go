package vec

import "math"

// refineF32 is the pass 2 SelectLeafSphereF32 runs and childKeys the
// kernel of ChildKeysBlock, chosen once at start: the assembly kernels
// where the CPU has AVX2 and FMA and the OS saves the YMM registers, else
// the Go loops.
var refineF32, childKeys = pickKernels()

func pickKernels() (func(sel []int32, sr, centers []float32, q []float64, dkqr float64) int,
	func(dst, centers, radii []float64, box []float32, q []float64, qr, dk float64) int) {
	if hasAVX2FMA() {
		return refineF32AVX2, childKeysAVX2
	}
	return refineF32Go, childKeysGo
}

// childKeysAVX2 checks the block as the two scalar kernels do and runs
// childKeysAVX2Asm, whose lanes round as the scalar loops do. Outside the
// box step's domain (qr or dk negative or NaN) it is childKeysGo.
func childKeysAVX2(dst, centers, radii []float64, box []float32, q []float64, qr, dk float64) int {
	if !(qr >= 0 && dk >= 0) {
		return childKeysGo(dst, centers, radii, box, q, qr, dk)
	}
	d := len(q)
	n := blockLen("MinDistSphereBlock", dst, len(centers), d)
	if len(radii) != n {
		panic(dimMismatch("MinDistSphereBlock", len(radii), n))
	}
	if len(box) != 2*d*n {
		panic(dimMismatch("RaiseToBoxBlock", len(box), 2*d*n))
	}
	thr := dk + qr
	return childKeysAVX2Asm(dst, centers, radii, box, q, qr, dk, thr*thr, math.Nextafter(dk, math.Inf(1)))
}

// childKeysAVX2Asm is MinDistSphereBlock then RaiseToBoxBlock, four
// children per pass (childkeys_amd64.s). The caller checks the block,
// keeps qr >= 0 and dk >= 0, and passes thr2 = (dk+qr)² and next =
// math.Nextafter(dk, +Inf) as RaiseToBoxBlock computes them.
//
//go:noescape
func childKeysAVX2Asm(dst, centers, radii []float64, box []float32, q []float64, qr, dk, thr2, next float64) int

// refineF32AVX2 is refineF32Go four coordinates at a time (refine_amd64.s):
// VCVTPS2PD widens four stored coordinates, VFMADD231PD accumulates their
// squared differences, and the d mod 4 tail takes a 2-wide and a 1-wide
// step. The sum differs from refineF32Go's only in rounding order (see the
// package comment of quant.go on why the shave covers it). Survivors are
// compacted without a branch; a NaN keeps the item. Every sel index must
// be below len(sr), and centers must hold len(sr)*len(q) values.
//
//go:noescape
func refineF32AVX2(sel []int32, sr, centers []float32, q []float64, dkqr float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS saves the
// YMM state across context switches (OSXSAVE and XCR0 bits 1–2).
func hasAVX2FMA() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
