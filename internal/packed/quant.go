package packed

import (
	"fmt"
	"math"

	"hyperdom/internal/geom"
	"hyperdom/internal/vec"
)

// Quantized coarse-filter tiers. Freeze builds, next to the exact float64
// blocks, two narrow parallel copies of every leaf item sphere: a float32
// tier and an int8 tier with per-leaf scale/offset. A leaf pass streams the
// narrow copy first (LeafQuantSelect) to drop every item whose conservative
// mindist lower bound already exceeds distk, and takes exact distances only
// for the survivors — same answers, a fraction of the bytes. Child bounds
// have no narrow copy: the exact kernel over a node's few children is
// cheaper than a coarse pass that prunes a fifth of them.
//
// The conservatism is bought at build time, not proven per query: every
// quantized entry carries a float32 slack that upper-bounds how far its
// reconstructed geometry can understate the exact mindist, measured in
// float64 from the very dequantization expression the kernels evaluate
// (center displacement ‖ĉ−c‖ plus any radius shortfall r−r̂, inflated by
// a 1e-9 relative margin and rounded up). Radii quantize upward (f32Up /
// ceil codes) so the quantized ball contains the exact one wherever the
// narrow type can represent it. Degenerate inputs — NaN coordinates,
// magnitudes beyond the narrow type's range, int8 clamping — simply inflate
// the entry's slack to +Inf (or leave NaN in it), so no drop comparison
// succeeds and the exact path stays authoritative.
// FuzzQuantizedLowerBound exercises exactly these edges. See DESIGN.md §12.

// Tier selects which quantized copy a leaf pass consults (knn.QuantMode).
type Tier uint8

const (
	TierNone Tier = iota // no coarse pass: every item takes the exact distance
	TierF32              // float32 item centers
	TierI8               // int8 item-center codes with per-leaf scale/offset
)

var tierNames = [...]string{"none", "f32", "i8"}

func (tier Tier) String() string {
	if int(tier) < len(tierNames) {
		return tierNames[tier]
	}
	return fmt.Sprintf("Tier(%d)", uint8(tier))
}

// quantTiers holds both narrow copies of the leaf item spheres. Item arrays
// parallel t.items / t.iCenters; the int8 tier's scale/offset arrays are
// indexed by node id. The quantized radii and per-entry slacks exist only
// inside the quantizers, which fold them into iSR32/iSR8.
type quantTiers struct {
	iCen32  []float32
	iCen8   []int8
	iScale  []float64 // per node
	iOffset []float64 // per node

	// Pivot pre-filter, the first test of the fused leaf select (see the
	// pivot doc block in vec/quant.go): per leaf the mean of its item
	// centers in float64, per item the float32 round-up of dist(pivot, c)
	// + rad. Shared by both tiers: the bound is exact geometry, not
	// quantized. Degenerate coordinates poison the pivot with NaN, which
	// fails every drop comparison and sends the whole leaf to the refine.
	leafPivot  []float64 // nodes*dim
	iPivotHi32 []float32 // len(items)

	// Per-item refine-threshold sums for the fused leaf kernels: the
	// float32 round-up of slack + radius (int8 tier: slack +
	// rScale·radCode), so the hot loop's threshold is one load and one
	// add. Rounding the sum up only raises the threshold, which keeps
	// the drop decision conservative.
	iSR32 []float32 // len(items)
	iSR8  []float32 // len(items)
}

// f32Up returns the smallest float32 whose value is >= x (NaN stays NaN,
// ±Inf stay themselves; finite x beyond float32 range saturates correctly:
// 1e300 → +Inf, -1e300 → -MaxFloat32).
func f32Up(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// slackMargin inflates a float64-measured slack so that the float32 value
// stored is a guaranteed upper bound despite the measurement's own
// rounding (relative error ~1e-15, margin 1e-9).
func slackMargin(s float64) float32 { return f32Up(s * (1 + 1e-9)) }

// quantSphereF32 appends the float32 tier of one leaf's item block (n
// entries, centers[e*dim:], radii[e]): round-to-nearest centers into cen32
// and, per item, the refine threshold sum into sr — the round-up of the
// slack ‖ĉ−c‖ plus the round-up radius.
func quantSphereF32(cen32, sr []float32, centers, radii []float64, dim int) ([]float32, []float32) {
	for e := 0; e < len(radii); e++ {
		c := centers[e*dim : (e+1)*dim]
		var disp2 float64
		for _, cj := range c {
			w := float32(cj)
			cen32 = append(cen32, w)
			d := float64(w) - cj
			disp2 += d * d
		}
		s := math.Sqrt(disp2)
		if radii[e] < 0 {
			// A negative radius would feed a mixed-sign threshold sum (see
			// prunes); infinite slack disables the entry: it never drops.
			s = math.Inf(1)
		}
		sr = append(sr, f32Up(float64(slackMargin(s))+float64(f32Up(radii[e]))))
	}
	return cen32, sr
}

// rangeOf returns the min and max of the finite values in xs (0, 0 when
// none are finite) — the per-node code range for the int8 tier. Skipping
// non-finite coordinates keeps one degenerate entry from destroying the
// resolution of its siblings; the entry itself is disabled through its
// slack.
func rangeOf(xs []float64) (lo, hi float64, any bool) {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if !any || x < lo {
			lo = x
		}
		if !any || x > hi {
			hi = x
		}
		any = true
	}
	if !any {
		return 0, 0, false
	}
	return lo, hi, true
}

// i8Params derives the per-node dequantization parameters from a finite
// value range: codes span [-127, 127], so scale covers the range in 254
// steps around the midpoint. Degenerate or overflowing ranges collapse to
// scale 0 (every code dequantizes to offset; per-entry slack absorbs the
// error, exactly for single-point nodes).
func i8Params(lo, hi float64) (scale, offset float64) {
	scale = (hi - lo) / 254
	offset = (lo + hi) / 2
	if scale <= 0 || math.IsInf(scale, 0) || math.IsNaN(scale) ||
		math.IsInf(offset, 0) || math.IsNaN(offset) {
		return 0, lo
	}
	return scale, offset
}

// i8Code quantizes one coordinate. The NaN-safe clamp pattern matters:
// converting a NaN or out-of-range float to int8 directly is undefined in
// Go, so the comparisons run on the float.
func i8Code(x, scale, offset float64) int8 {
	if scale == 0 {
		return 0
	}
	t := math.Round((x - offset) / scale)
	if !(t >= -127) {
		t = -127
	}
	if t > 127 {
		t = 127
	}
	return int8(t)
}

// radCode quantizes a radius into a ceil uint8 code against rScale and
// returns the code plus the shortfall r − rScale·code the caller must fold
// into the entry's slack when positive (a quantized radius smaller than
// the exact one would otherwise overstate the mindist).
func radCode(r, rScale float64) (uint8, float64) {
	if rScale == 0 {
		return 0, r
	}
	t := math.Ceil(r / rScale)
	if !(t >= 0) {
		t = 0
	}
	if t > 255 {
		t = 255
	}
	code := uint8(t)
	return code, r - rScale*float64(code)
}

// quantSphereI8 appends the int8 tier of one leaf's item block — center
// codes into cen8, per-item threshold sums (slack + rScale·radCode) into sr —
// and returns the leaf's scale/offset. The slack is measured against the
// exact dequantization expression the kernel evaluates (offset +
// scale·code), plus any radius shortfall.
func quantSphereI8(cen8 []int8, sr []float32, centers, radii []float64, dim int) ([]int8, []float32, float64, float64) {
	lo, hi, _ := rangeOf(centers)
	scale, offset := i8Params(lo, hi)
	var maxR float64
	for _, r := range radii {
		if r > maxR && !math.IsInf(r, 1) {
			maxR = r
		}
	}
	rScale := maxR / 255
	for e := 0; e < len(radii); e++ {
		c := centers[e*dim : (e+1)*dim]
		var disp2 float64
		for _, cj := range c {
			code := i8Code(cj, scale, offset)
			cen8 = append(cen8, code)
			d := offset + scale*float64(code) - cj
			disp2 += d * d
		}
		code, deficit := radCode(radii[e], rScale)
		s := math.Sqrt(disp2)
		if deficit > 0 {
			s += deficit
		} else if math.IsNaN(deficit) {
			s = math.NaN()
		}
		if radii[e] < 0 {
			s = math.Inf(1) // as in quantSphereF32
		}
		sr = append(sr, f32Up(float64(slackMargin(s))+rScale*float64(code)))
	}
	return cen8, sr, scale, offset
}

// buildQuant fills both narrow tiers for every leaf's item block. Called
// once by finish(); one pass per tier over data the builder just wrote, so
// freezing stays O(data).
func (t *Tree) buildQuant() {
	q := &t.quant
	nodes := len(t.leaf)
	q.iScale = make([]float64, nodes)
	q.iOffset = make([]float64, nodes)
	q.leafPivot = make([]float64, nodes*t.dim)
	dim := t.dim
	for n := 0; n < nodes; n++ {
		is, ie := t.itemStart[n], t.itemStart[n+1]
		if ie == is {
			continue
		}
		centers := t.iCenters[is*int32(dim) : ie*int32(dim)]
		radii := t.iRadii[is:ie]
		q.iCen32, q.iSR32 = quantSphereF32(q.iCen32, q.iSR32, centers, radii, dim)
		q.iCen8, q.iSR8, q.iScale[n], q.iOffset[n] = quantSphereI8(q.iCen8, q.iSR8, centers, radii, dim)
		// Pivot = centroid of the leaf's item centers (any point works
		// for correctness; the centroid keeps the per-item distances —
		// and with them the bound's looseness — small).
		pv := q.leafPivot[n*dim : n*dim+dim]
		for e := range radii {
			for j := 0; j < dim; j++ {
				pv[j] += centers[e*dim+j]
			}
		}
		for j := range pv {
			pv[j] /= float64(len(radii))
		}
		for e, r := range radii {
			d := vec.DistEntry(pv, centers[e*dim:(e+1)*dim])
			// Clamp at 0: a negative value would flip the direction
			// the relative rounding margin must point, and raising
			// the bound only loosens it, so the clamp stays
			// conservative. A NaN passes through slackMargin and
			// fails every drop comparison at query time.
			hi := d + r
			if hi < 0 {
				hi = 0
			}
			q.iPivotHi32 = append(q.iPivotHi32, slackMargin(hi))
		}
	}
}

// prunes is the one gate in front of the select kernels: a narrow tier, a
// finite dk (an unbounded one prunes nothing), and their domain, qr >= 0
// and dk >= 0 — a negative term (a degenerate query radius, or a dk only
// degenerate data spheres produce) brings back the mixed-sign cancellation
// their threshold arithmetic excludes (vec/quant.go). NaN fails it.
func (tier Tier) prunes(qr, dk float64) bool {
	return (tier == TierF32 || tier == TierI8) && qr >= 0 && dk >= 0 && !math.IsInf(dk, 1)
}

// LeafQuantSelect writes into sel, ascending, the indices (within leaf n's
// item block) the leaf pass must still decide exactly, returns their count,
// and reports whether the tier ran; sel needs room for the whole leaf. A
// tier that cannot prune (prunes) names every index. One that can names the
// items whose narrow bound cannot certainly exceed dk: one exact distance to
// the leaf's pivot, then one pass in which most items settle on a float32
// compare (triangle inequality) and the rest pay the per-dimension bound.
// Every item it drops has exact mindist > dk.
func (t *Tree) LeafQuantSelect(tier Tier, n int32, q geom.Sphere, dk float64, sel []int32) (m int, ran bool) {
	is, ie := t.itemStart[n], t.itemStart[n+1]
	if !tier.prunes(q.Radius, dk) {
		for i := range sel[:ie-is] {
			sel[i] = int32(i)
		}
		return int(ie - is), false
	}
	lo, hi := is*int32(t.dim), ie*int32(t.dim)
	qt := &t.quant
	pv := qt.leafPivot[int(n)*t.dim : (int(n)+1)*t.dim]
	dCent := vec.DistEntry(pv, q.Center)
	if tier == TierF32 {
		return vec.SelectLeafSphereF32(sel, qt.iPivotHi32[is:ie], qt.iSR32[is:ie], dCent,
			qt.iCen32[lo:hi], q.Center, q.Radius, dk), true
	}
	return vec.SelectLeafSphereI8(sel, qt.iPivotHi32[is:ie], qt.iSR8[is:ie], dCent,
		qt.iCen8[lo:hi], qt.iScale[n], qt.iOffset[n], q.Center, q.Radius, dk), true
}

// LeafDistAt computes the exact center distance of leaf n's i-th item —
// bit-identical to vec.Dist, the pointer path's.
func (t *Tree) LeafDistAt(n int32, i int32, q []float64) float64 {
	e := t.itemStart[n] + i
	return vec.DistEntry(t.iCenters[e*int32(t.dim):(e+1)*int32(t.dim)], q)
}
