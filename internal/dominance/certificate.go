package dominance

import "math"

// certRel is the relative size of the certificate margin m: certify works
// with m = certRel·(|p1| + p2 + α + r), six orders of magnitude above the
// float64 rounding of the full path and of the certificate's own arithmetic,
// which are both relative to the same frame coordinates (DESIGN.md §7).
const certRel = 1e-9

// certify tries to settle hyperbolaDmin > r on a general (hyperbola) frame
// without the quartic, after dminBeats' closed-form candidates all cleared
// r. ok reports that it did; v is then the verdict the full path returns.
//
// The frame is the one the full path works in: the branch is
// x(y) = −A·√(1 + y²/B²), Ra = {x < x(y)} is convex because x(y) is
// concave, and the query is the disk of radius r about P = (p1, p2), P in
// Ra. m is the margin both tests leave.
//
//   - Chord accept. The branch is sampled at y ∈ {p2−r−m, p2, p2+r+m}. A
//     chord between two branch points lies in Ra (x(y) is concave), so a
//     disk on the inner side of both chords, whose y-spans cover the disk's,
//     is inside Ra. Because P is level with the middle sample, its distance
//     to either chord is the horizontal gap g = x(p2) − p1 times the chord's
//     sine dy/|chord|. Both above r+m prove the true dmin exceeds r by about
//     m, and the full path's dmin, a minimum over points on the branch to
//     rounding, can only sit above that.
//   - Witness reject. The witness is the branch point level with P and up
//     to three Newton steps on |P − Z(y)|²/2 from it (footDist). Nearer to P
//     than r−m, it proves the true dmin is below r by about m. The full
//     path's dmin is the minimum over every real root of Eq. (14), so it is
//     the true dmin to rounding, far inside m: below r too.
//
// NaN and ±Inf operands (squares next to the float64 range) make every
// comparison false, so the check falls through to the quartic undecided.
func (p *PreparedPair) certify(p1, p2, r float64) (v, ok bool) {
	hA, b2 := p.hA, p.b2
	m := certRel * (math.Abs(p1) + p2 + p.alpha + r)
	yl, yh := p2-(r+m), p2+(r+m)
	xl := -hA * math.Sqrt(1+yl*yl/b2)
	xm := -hA * math.Sqrt(1+p2*p2/b2)
	xh := -hA * math.Sqrt(1+yh*yh/b2)
	g := xm - p1 // P's horizontal gap to the branch, > 0 inside Ra
	dyl, dyh := p2-yl, yh-p2
	if g*(dyl/math.Hypot(xm-xl, dyl)) > r+m && g*(dyh/math.Hypot(xh-xm, dyh)) > r+m {
		return true, true
	}
	return false, footDist(hA, b2, p1, p2, p2) < r-m
}
