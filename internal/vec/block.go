package vec

import "math"

// Packed-block kernels (ISSUE 5). A "block" is the SoA layout of the frozen
// tree representation (package packed): the centers of entries 0..n-1 stored
// back-to-back in one contiguous []float64 — entry i occupies
// centers[i*d : (i+1)*d] — with radii in a parallel slice. The kernels
// below stream one pass over such a block and write the per-entry result
// into a caller-owned scratch slice, so a traversal's mindist loop touches
// only sequential memory and allocates nothing.
//
// Bit-exactness contract: every kernel accumulates the squared distance in
// strict coordinate order — the inner loops are 4-way unrolled for loop
// overhead, but each term is added to a single accumulator in the same
// order the scalar Dist2 uses, so the results are bit-identical to the
// pointer-walking geom.MinDist path. On those values the frozen and
// pointer traversals take exactly the same branches;
// the differential tests in package knn and FuzzPackedMinDist rely on this.
// RaiseToBoxBlock is the one kernel outside the contract: it computes a
// second, deliberately conservative bound the pointer path does not have.
// Its own order is fixed all the same, because node keys are built from it.
// ChildKeysBlock, the two kernels fused, may vectorise across children —
// one child per lane — but never within one child's sum, and never with
// FMA: each lane must round exactly as the scalar loops do, so the keys,
// the walk's visit order and its Stats do not depend on the CPU.

// dist2Seq returns the squared distance between c and q accumulated in
// coordinate order, 4-way unrolled. c and q must have equal length (the
// block kernels check once per block, not per entry).
func dist2Seq(c, q []float64) float64 {
	var s float64
	i := 0
	for ; i+4 <= len(q); i += 4 {
		d0 := c[i] - q[i]
		s += d0 * d0
		d1 := c[i+1] - q[i+1]
		s += d1 * d1
		d2 := c[i+2] - q[i+2]
		s += d2 * d2
		d3 := c[i+3] - q[i+3]
		s += d3 * d3
	}
	for ; i < len(q); i++ {
		d := c[i] - q[i]
		s += d * d
	}
	return s
}

// blockLen validates a block against its entry count and dimensionality and
// returns n, the number of entries.
func blockLen(name string, dst []float64, blockFloats, d int) int {
	if d <= 0 {
		panic(dimMismatch(name, blockFloats, d))
	}
	if blockFloats%d != 0 {
		panic(dimMismatch(name, blockFloats, d))
	}
	n := blockFloats / d
	if len(dst) != n {
		panic(dimMismatch(name, len(dst), n))
	}
	return n
}

// DistBlock writes into dst[i] the Euclidean distance between q and the
// i-th packed center (len(centers) = len(dst)*len(q)), bit-identical to
// Dist per entry. No traversal calls it: the benchmark harness times it.
func DistBlock(dst, centers []float64, q []float64) {
	n := blockLen("DistBlock", dst, len(centers), len(q))
	d := len(q)
	for i := 0; i < n; i++ {
		dst[i] = math.Sqrt(dist2Seq(centers[i*d:(i+1)*d], q))
	}
}

// MinDistSphereBlock writes into dst[i] the minimum distance between the
// query sphere (center q, radius qr) and the i-th packed sphere (center
// block + radii[i]): max(0, Dist − radii[i] − qr), subtracting in exactly
// that order — bit-identical to geom.MinDist(entry, query) per entry.
func MinDistSphereBlock(dst, centers, radii []float64, q []float64, qr float64) {
	n := blockLen("MinDistSphereBlock", dst, len(centers), len(q))
	if len(radii) != n {
		panic(dimMismatch("MinDistSphereBlock", len(radii), n))
	}
	d := len(q)
	for i := 0; i < n; i++ {
		m := math.Sqrt(dist2Seq(centers[i*d:(i+1)*d], q)) - radii[i] - qr
		if m > 0 {
			dst[i] = m
		} else {
			dst[i] = 0
		}
	}
}

// RaiseToBoxBlock tightens the sphere bounds MinDistSphereBlock wrote into
// dst with a second bound per entry: box holds, for entry i, the interleaved
// float32 [lo, hi] pairs of an axis-aligned box around everything the entry
// bounds (box[2*(i*d+j)], box[2*(i*d+j)+1] for coordinate j), lo <= hi,
// rounded outward when it was built. For every entry whose bound is still
// <= dk the kernel computes the squared distance from q to the box —
// max(lo−c, c−hi, 0) per coordinate, taken without a branch as
// ½·((x+|x|) + (y+|y|)), which is exact because lo <= hi lets at most one
// of x = lo−c and y = c−hi be positive — and
//
//   - rejects the entry in squared space, before any square root, when
//     s·(1−2·lbEps) > (dk+qr)²: dst[i] becomes the smallest value above dk,
//     which the margin just cleared keeps a lower bound;
//   - otherwise raises dst[i] to √s·(1−lbEps) − qr when that is larger.
//
// It returns the number of entries rejected. The relative shave on the
// distance term absorbs the float64 rounding of this evaluation and of the
// exact one, as in the select kernels of quant.go; the box is a lower bound
// because a sphere lies inside its bounding box. Outside the squared-space
// domain (qr or dk negative or NaN) nothing is touched. A NaN coordinate, or
// an infinite box end (x+|x| is then Inf−Inf), makes s NaN, which fails both
// comparisons, so dst[i] keeps the sphere bound.
func RaiseToBoxBlock(dst []float64, box []float32, q []float64, qr, dk float64) (rejected int) {
	d := len(q)
	if len(box) != 2*d*len(dst) {
		panic(dimMismatch("RaiseToBoxBlock", len(box), 2*d*len(dst)))
	}
	if !(qr >= 0 && dk >= 0) {
		return 0
	}
	thr := dk + qr
	thr2 := thr * thr
	for i := range dst {
		if !(dst[i] <= dk) {
			continue
		}
		b := box[2*d*i : 2*d*(i+1)]
		var s float64
		for j, c := range q {
			x, y := float64(b[2*j])-c, c-float64(b[2*j+1])
			dd := 0.5 * ((x + math.Abs(x)) + (y + math.Abs(y)))
			s += dd * dd
		}
		if selDrop(s, thr2) {
			dst[i] = math.Nextafter(dk, math.Inf(1))
			rejected++
		} else if m := math.Sqrt(s)*(1-lbEps) - qr; m > dst[i] {
			dst[i] = m
		}
	}
	return rejected
}

// ChildKeysBlock is MinDistSphereBlock followed by RaiseToBoxBlock on the
// same dst, bit for bit: the keys a packed walk orders and prunes a node's
// children by, and the count of children the box put beyond dk. It runs
// childKeys, chosen once at start: on amd64 with AVX2 the kernel of
// childkeys_amd64.s, which takes four children per pass, one in each lane,
// and adds each child's coordinates in the scalar order without FMA;
// elsewhere the two scalar kernels. Both panic on the same block shapes.
func ChildKeysBlock(dst, centers, radii []float64, box []float32, q []float64, qr, dk float64) (rejected int) {
	return childKeys(dst, centers, radii, box, q, qr, dk)
}

// childKeysGo is ChildKeysBlock as the two scalar kernels, the reference
// the vector kernel must match.
func childKeysGo(dst, centers, radii []float64, box []float32, q []float64, qr, dk float64) int {
	MinDistSphereBlock(dst, centers, radii, q, qr)
	return RaiseToBoxBlock(dst, box, q, qr, dk)
}
