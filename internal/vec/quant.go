package vec

import "math"

// Quantized coarse-filter kernels (ISSUE 6). These are the narrow-type
// companions of the exact block kernels in block.go: the packed snapshot
// (package packed) stores a float32 copy and an int8 copy (with per-leaf
// scale/offset) of every leaf item center, and the kernels below stream one
// pass over such a narrow block to settle, conservatively, which entries'
// minimum distance to the query certainly exceeds a bound.
//
// Contract — the reason these are sufficient prune criteria: the lower
// bound lb[i] a kernel derives for entry i satisfies
//
//	lb[i] <= exact[i] whenever exact[i] is not NaN,
//
// where exact[i] is the value the float64 path computes for the same entry.
// A traversal may therefore prune on lb[i] > bound exactly when it could
// have pruned on the exact value, and must fall back to the exact block
// only when the narrow bound fails to prune. When the inputs are degenerate
// (NaN anywhere, overflow to ±Inf in the narrow type) no prune comparison
// succeeds, so the exact path keeps full authority over every edge case.
// FuzzQuantizedLowerBound (package packed) locks this contract.
//
// The slack accounting: quantization replaces an exact geometry g by a
// narrow ĝ, and the builder stores, per entry, an upper bound on how far
// the quantized mindist can exceed the exact one (center displacement
// ‖ĉ−c‖ plus any radius deficit r−r̂, computed in float64 at freeze time
// from the very same dequantized values the kernels reconstruct, rounded
// up). The kernels subtract that slack, then shave a relative lbEps off
// the distance term to absorb the float64 arithmetic rounding of both the
// narrow and the exact evaluation (true relative error is below 1e-13 for
// any practical dimensionality; 1e-9 leaves three orders of margin and
// costs nothing in pruning power).
//
// Summation order. The select kernels below may reorder their arithmetic;
// the exact kernels may not. dist2Seq, the block kernels of block.go and
// DistEntry add in coordinate order, because the packed and pointer walks
// must compute the same node keys and distances bit for bit.
// RaiseToBoxBlock keeps its order too: node keys are built from it, and a
// key orders the walk. The node-key kernel (ChildKeysBlock,
// childkeys_amd64.s) may vectorise across children, one child per lane,
// but never within one child's sum, and never with FMA. A
// select only decides which items the exact loop still has to look at, and
// it carries the lbEps shave. FMA, or summing in four lanes, moves a squared
// sum of d non-negative terms by at most about d·2⁻⁵³ of itself (about
// 1e-15 at d = 10), six orders of magnitude inside the shave. The one
// exception is a sum that ends within that distance of MaxFloat64: there,
// one order may overflow and another not. Subnormal sums come out the same
// in every order, with or without FMA: every partial sum is an exact
// multiple of the smallest subnormal, and no square of a float64 lies
// exactly halfway between two subnormals.
// refineF32AVX2 (refine_amd64.s) is the one select that uses this freedom.
const lbEps = 1e-9

// qclamp maps a raw lower bound to its final form: non-positive, +Inf and
// NaN all collapse to 0, the bound that never prunes.
func qclamp(m float64) float64 {
	if m > 0 && m <= math.MaxFloat64 {
		return m
	}
	return 0
}

// dist2SeqF32 accumulates the squared distance between a packed float32
// center and the float64 query in coordinate order, widening each stored
// coordinate to float64 (exact) so the only quantization error is the one
// the stored slack accounts for. 4-way unrolled like dist2Seq.
func dist2SeqF32(c []float32, q []float64) float64 {
	var s float64
	i := 0
	for ; i+4 <= len(q); i += 4 {
		d0 := float64(c[i]) - q[i]
		s += d0 * d0
		d1 := float64(c[i+1]) - q[i+1]
		s += d1 * d1
		d2 := float64(c[i+2]) - q[i+2]
		s += d2 * d2
		d3 := float64(c[i+3]) - q[i+3]
		s += d3 * d3
	}
	for ; i < len(q); i++ {
		d := float64(c[i]) - q[i]
		s += d * d
	}
	return s
}

// MinDistSphereBlockF32 writes into dst[i] a conservative lower bound on
// the minimum distance between the query sphere (center q, radius qr) and
// the i-th exact sphere, computed from its float32 copy: centers holds the
// round-to-nearest float32 centers, radii the round-up float32 radii, and
// slack the per-entry quantization slack (see package comment). Every
// dst[i] is finite and >= 0. len(centers) must be len(dst)*len(q); radii
// and slack must have length len(dst). The bound form of the leaf select
// below: no traversal calls it, the benchmark harness times it as the cost
// of one narrow streaming pass.
func MinDistSphereBlockF32(dst []float64, centers, radii, slack []float32, q []float64, qr float64) {
	n := blockLen("MinDistSphereBlockF32", dst, len(centers), len(q))
	if len(radii) != n || len(slack) != n {
		panic(dimMismatch("MinDistSphereBlockF32", len(radii), n))
	}
	d := len(q)
	for i := 0; i < n; i++ {
		dist := math.Sqrt(dist2SeqF32(centers[i*d:(i+1)*d], q))
		dst[i] = qclamp(dist*(1-lbEps) - float64(slack[i]) - float64(radii[i]) - qr)
	}
}

// Select kernels — the traversal-facing form of the bound. Writing a bound
// and comparing it against the current kth distance costs a square root per
// entry; the traversal only needs the comparison, and
//
//	dist̂·(1−lbEps) > thr,  thr = dk + slack + radius + qr
//
// holds exactly when dist̂²·(1−2·lbEps) > thr² (both sides non-negative, and
// the doubled shave absorbs the squaring's own rounding), so the kernels
// below decide in squared space — no square root — and write the indices of
// the *survivors* into sel, returning their count. A dropped entry
// certainly has exact[i] > dk: the margin the comparison clears is relative
// to the (larger) distance side, so the whole conservatism chain of the
// package comment carries over. NaN anywhere settles every comparison
// false: the entry survives and the exact fallback keeps authority. sel
// must have length >= the entry count.
//
// Domain: the squared-space comparison is sound only when every term of thr
// is non-negative — a mixed-sign sum can cancel catastrophically, leaving
// thr with absolute error far beyond any relative margin (a tiny slack
// absorbed into a large ±qr pair vanishes entirely). Callers must pass
// qr >= 0 and dk >= 0 (package packed's one gate in front of these kernels,
// Tier.prunes, checks both), and the freeze-time quantizers disable
// negative-radius entries by giving them infinite slack.

// selDrop is the squared-space prune decision shared by the select kernels.
func selDrop(s, thr2 float64) bool {
	return s*(1-2*lbEps) > thr2
}

// selLen validates a select kernel's geometry: positive dimensionality, a
// whole number of entries in the block, and room in sel for every survivor.
func selLen(name string, sel []int32, blockVals, d int) int {
	if d <= 0 || blockVals%d != 0 {
		panic(dimMismatch(name, blockVals, d))
	}
	n := blockVals / d
	if len(sel) < n {
		panic(dimMismatch(name, len(sel), n))
	}
	return n
}

// DistEntry computes one entry of DistBlock — bit-identical to the block
// kernel (and to Dist: the unrolled accumulation preserves coordinate
// order).
func DistEntry(center, q []float64) float64 {
	return math.Sqrt(dist2Seq(center, q))
}

// Pivot pre-filter — the cheap first test of the fused leaf select
// kernels. Freeze stores, for every leaf, a float64 pivot point (the
// centroid of its item centers) and per item the float32 round-up of
// dist(pivot, c_i) + rad_i. One exact distance dCent = dist(q, pivot) per
// visited leaf then bounds every item by the triangle inequality:
//
//	mindist_i = dist(q, c_i) − rad_i − qr ≥ dCent − pd_i − qr
//
// so most items of a leaf whose pivot sits beyond dk settle on a single
// float32 load and compare before the per-dimension narrow bound runs at
// all. The margin here is absolute, 1e-12·dCent, not the relative lbEps
// shave of the squared-space kernels: the bound is a difference of two
// potentially-large near-equal distances, so its absolute float64 error
// scales with dCent (~1e-15·dCent for the handful of operations involved)
// while the difference itself can be arbitrarily small — a margin
// proportional to dCent covers the error at every scale, where a margin
// proportional to the difference would not. A NaN pd (or dCent) fails the
// comparison and falls through to the refine, keeping the exact path
// authoritative. (The reverse-triangle test — dropping items whose whole
// band around the pivot lies inside dCent + qr + dk — was measured too:
// on the bench workload dk stays larger than a leaf's spread, so it fired
// on 4 of 10⁵ items while taxing all of them; it is deliberately absent.)
//
// The kernels run in two passes over one leaf. Pass 1 applies only the
// pivot compare and gathers the indices that survive it into sel — the
// store is unconditional and the count advances by the comparison result,
// so the ~50/50 drop/refine outcome costs no branch mispredictions. Pass 2
// walks the gathered indices and applies the narrow per-dimension bound
// (selDrop in squared space), compacting survivors into the
// front of sel in ascending index order — the order the exact fallback
// must replay in. The refine threshold uses sr, the freeze-time float32
// round-up of slack_i + rad_i (int8 tier: slack_i + rScale·radCode_i),
// which keeps the per-item threshold to one load and one add; rounding the
// precomputed sum up only raises thr, so conservatism is preserved, and
// both addends are non-negative by the select kernel domain rules above.
// The float32 tier's pass 2 is refineF32, chosen once per process: the
// AVX2+FMA kernel of refine_amd64.s where the CPU has it, else
// refineF32Go.

// SelectLeafSphereF32 is the fused leaf select kernel for the float32
// tier. Survivor indices go into sel (room for the item count required);
// every dropped entry has exact mindist > dk. The thr terms must be
// non-negative — see the select kernel domain note above.
func SelectLeafSphereF32(sel []int32, pd, sr []float32, dCent float64, centers []float32, q []float64, qr, dk float64) int {
	n := selLen("SelectLeafSphereF32", sel, len(centers), len(q))
	if len(pd) != n || len(sr) != n {
		panic(dimMismatch("SelectLeafSphereF32", len(pd), n))
	}
	mFar := dCent - qr - dk - 1e-12*dCent
	m := 0
	for i := 0; i < n; i++ {
		sel[m] = int32(i)
		keep := 0
		if !(float64(pd[i]) < mFar) { // NaN keeps: exact path stays authoritative
			keep = 1
		}
		m += keep
	}
	return refineF32(sel[:m], sr, centers, q, dk+qr)
}

// refineF32Go is pass 2 of SelectLeafSphereF32 in Go: sel holds the pivot
// survivors, ascending; their refine survivors are compacted into its
// front and counted. The fallback on CPUs without AVX2 and FMA, and on
// other architectures (refineF32 picks).
func refineF32Go(sel []int32, sr, centers []float32, q []float64, dkqr float64) int {
	m := len(sel)
	d := len(q)
	cnt := 0
	for s2 := 0; s2 < m; s2++ {
		i := int(sel[s2])
		thr := dkqr + float64(sr[i])
		c := centers[i*d : i*d+d]
		var s float64
		j := 0
		for ; j+4 <= d; j += 4 {
			d0 := float64(c[j]) - q[j]
			d1 := float64(c[j+1]) - q[j+1]
			d2 := float64(c[j+2]) - q[j+2]
			d3 := float64(c[j+3]) - q[j+3]
			s += d0*d0 + d1*d1 + d2*d2 + d3*d3
		}
		for ; j < d; j++ {
			dd := float64(c[j]) - q[j]
			s += dd * dd
		}
		if !selDrop(s, thr*thr) {
			sel[cnt] = int32(i)
			cnt++
		}
	}
	return cnt
}

// SelectLeafSphereI8 is SelectLeafSphereF32 for the int8 tier. The pivot
// and sr arrays are tier-specific only in their slack content; the pivot
// distances themselves are an exact-path by-product, not quantized
// geometry. Only the refine stage dequantizes.
func SelectLeafSphereI8(sel []int32, pd, sr []float32, dCent float64, codes []int8, scale, offset float64, q []float64, qr, dk float64) int {
	n := selLen("SelectLeafSphereI8", sel, len(codes), len(q))
	if len(pd) != n || len(sr) != n {
		panic(dimMismatch("SelectLeafSphereI8", len(pd), n))
	}
	mFar := dCent - qr - dk - 1e-12*dCent
	m := 0
	for i := 0; i < n; i++ {
		sel[m] = int32(i)
		keep := 0
		if !(float64(pd[i]) < mFar) {
			keep = 1
		}
		m += keep
	}
	dkqr := dk + qr
	d := len(q)
	cnt := 0
	for s2 := 0; s2 < m; s2++ {
		i := int(sel[s2])
		thr := dkqr + float64(sr[i])
		c := codes[i*d : i*d+d]
		var s float64
		j := 0
		for ; j+4 <= d; j += 4 {
			d0 := offset + scale*float64(c[j]) - q[j]
			d1 := offset + scale*float64(c[j+1]) - q[j+1]
			d2 := offset + scale*float64(c[j+2]) - q[j+2]
			d3 := offset + scale*float64(c[j+3]) - q[j+3]
			s += d0*d0 + d1*d1 + d2*d2 + d3*d3
		}
		for ; j < d; j++ {
			dd := offset + scale*float64(c[j]) - q[j]
			s += dd * dd
		}
		if !selDrop(s, thr*thr) {
			sel[cnt] = int32(i)
			cnt++
		}
	}
	return cnt
}
