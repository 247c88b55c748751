package packed

import "math"

// The second bound of a frozen tree. An SS-tree child entry is bounded by
// a sphere around a centroid, which in more than a few dimensions is far
// looser than the data: most of its volume is empty, and the kNN walk
// opens subtrees nothing in which is within distk. Any sound lower bound on
// MinDist may prune (Lemma 9), and a sphere lies inside its bounding box,
// so finish() stores beside every child entry the axis-aligned box of
// everything below it and the walk prunes on max(sphere, box) — the
// intersection test of the SR-tree (Katayama & Satoh, SIGMOD '97).
//
// The box is derived here, bottom-up from the frozen arrays, and never
// maintained by the pointer tree: insertion, splits and the shape of the
// tree are what they were, so is every byte of the other sections, and a
// snapshot never changes once built. Builder ids are bottom-up (child <
// parent), so one pass in id order sees every child's box before its
// parent's.
//
// Coordinates are float32 rounded strictly outward — lo to a float32 below
// the computed c − r, hi to one above c + r, never equal to it, which also
// covers the half ulp the float64 subtraction itself may have rounded
// inward — so the stored box contains the exact one whatever the magnitudes.
// Radii are first inflated by the relative slackRelParam (1e-9): the exact
// path evaluates dist − r in float64 with an absolute error that grows with
// r, and beside a sphere much larger than its gap to the query that error
// exceeds the gap's own relative shave in the kernel; the inflation keeps
// the box key below the value the exact path computes, not merely below the
// true one (FuzzBoxLowerBound's committed entry is such a sphere). An item
// with a NaN anywhere in its extent makes its leaf's box, and every box
// above it, (−Inf, +Inf) on every axis, which no query is outside of.

// f32Above returns the smallest float32 strictly greater than x, +Inf when
// there is none (NaN stays NaN, 1e300 → +Inf, -1e300 → -MaxFloat32). Two
// distinct float64 values are at least an ulp apart, so the result clears x
// by more than the rounding error of the float64 operation that produced x.
func f32Above(x float64) float32 {
	f := float32(x)
	if !(float64(f) > x) {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// buildBoxes fills cBox for every child entry.
func (t *Tree) buildBoxes() {
	w := 2 * t.dim
	nodeBox := make([]float32, len(t.leaf)*w)
	t.cBox = make([]float32, len(t.child)*w)
	acc := make([]float64, w)
	for n := range t.leaf {
		nb := nodeBox[n*w : (n+1)*w]
		cs, ce := int(t.childStart[n]), int(t.childStart[n+1])
		switch {
		case t.itemStart[n] < t.itemStart[n+1]:
			t.leafBox(nb, n, acc)
		case cs < ce:
			for e := cs; e < ce; e++ {
				cb := nodeBox[int(t.child[e])*w:][:w]
				copy(t.cBox[e*w:], cb)
				if e == cs {
					copy(nb, cb)
					continue
				}
				for j := 0; j < w; j += 2 {
					nb[j], nb[j+1] = min(nb[j], cb[j]), max(nb[j+1], cb[j+1])
				}
			}
		default:
			// Nothing below it (only a hand-built tree has such a node under
			// a parent): every stored box keeps lo <= hi, which is what the
			// snapshot reader insists on.
			unbounded(nb)
		}
	}
}

// leafBox writes the box of leaf n's items into nb. acc is scratch of the
// same length: the leaf's extent in float64 as [−lo, hi] per axis, so that
// one max and one rounding direction serve both ends, narrowed once per
// leaf rather than once per item. A NaN anywhere — a NaN coordinate or
// radius, an Inf − Inf — survives the max into acc, and the whole box
// becomes unbounded: the exact path computes a NaN MinDist for that item
// and keeps it wherever it is met, so no box may stand in the way.
func (t *Tree) leafBox(nb []float32, n int, acc []float64) {
	for j := range acc {
		acc[j] = math.Inf(-1)
	}
	dim := t.dim
	for e := int(t.itemStart[n]); e < int(t.itemStart[n+1]); e++ {
		r := max(t.iRadii[e], 0) * (1 + slackRelParam)
		for j, c := range t.iCenters[e*dim : (e+1)*dim] {
			acc[2*j], acc[2*j+1] = max(acc[2*j], r-c), max(acc[2*j+1], c+r)
		}
	}
	for j, a := range acc {
		if a != a {
			unbounded(nb)
			return
		}
		nb[j] = f32Above(a)
		if j%2 == 0 {
			nb[j] = -nb[j]
		}
	}
}

// unbounded sets every axis of box b to (−Inf, +Inf): the box that prunes
// nothing, and that no union narrows again.
func unbounded(b []float32) {
	for j := 0; j < len(b); j += 2 {
		b[j], b[j+1] = float32(math.Inf(-1)), float32(math.Inf(1))
	}
}
