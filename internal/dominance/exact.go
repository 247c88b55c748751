package dominance

import (
	"math"

	"hyperdom/internal/geom"
)

// Exact is a reference oracle for the dominance problem: correct and sound
// like Hyperbola, but deliberately implemented with a different minimisation
// strategy — a dense parameter scan over the hyperbola branch followed by
// golden-section refinement — so that the two implementations can validate
// each other. It runs in O(d + S) time for a scan budget S and is meant for
// tests and ground-truth computation, not for hot pruning loops.
type Exact struct{}

// Name implements Criterion.
func (Exact) Name() string { return "Exact" }

// Correct implements Criterion.
func (Exact) Correct() bool { return true }

// Sound implements Criterion.
func (Exact) Sound() bool { return true }

// Dominates implements Criterion.
func (Exact) Dominates(sa, sb, sq geom.Sphere) bool {
	checkDims(sa, sb, sq)
	red, ok := reduce(sa, sb, sq)
	if !ok {
		return false
	}
	if !red.inside {
		return false
	}
	if sq.Radius == 0 {
		return true
	}
	return exactDmin(red) > sq.Radius
}

// Dmin returns the minimum distance from the center of sq to the boundary
// of the region Ra defined by sa and sb, computed by the oracle's numeric
// minimiser. It panics if sa and sb overlap (the boundary does not exist).
// Exposed for tests that want to compare distances rather than verdicts.
func Dmin(sa, sb, sq geom.Sphere) float64 {
	red, ok := reduce(sa, sb, sq)
	if !ok {
		panic("dominance: Dmin called on overlapping Sa, Sb")
	}
	return exactDmin(red)
}

// HyperbolaDmin is the quartic counterpart of Dmin, exposed for
// the same cross-validation tests. It panics if sa and sb overlap.
func HyperbolaDmin(sa, sb, sq geom.Sphere) float64 {
	red, ok := reduce(sa, sb, sq)
	if !ok {
		panic("dominance: HyperbolaDmin called on overlapping Sa, Sb")
	}
	return hyperbolaDmin(red)
}

// exactDmin computes the minimum distance from (p1,p2) to the left branch
// x²/A² − y²/B² = 1, x ≤ −A by scanning the branch ordinate y over a bracket
// guaranteed to contain the minimiser and refining with golden-section
// search. Robust by construction; used as ground truth.
func exactDmin(red reduced) float64 {
	alpha, rab, p1, p2 := red.alpha, red.rab, red.p1, red.p2
	if red.line {
		// 1-dimensional ambient space: the boundary of Ra is one point.
		return math.Abs(p1 + rab/2)
	}
	if rab == 0 {
		return math.Abs(p1)
	}
	hA := rab / 2
	b2 := (alpha - hA) * (alpha + hA)
	if b2 <= 0 {
		// Fully degenerate branch (tangent spheres): the ray x ≤ −A, y = 0.
		if p1 <= -hA {
			return math.Abs(p2)
		}
		return math.Hypot(p1+hA, p2)
	}
	dist := func(y float64) float64 {
		x := -hA * math.Sqrt(1+y*y/b2)
		return math.Hypot(p1-x, p2-y)
	}
	// The minimiser ŷ satisfies |p2 − ŷ| ≤ dist(ŷ) ≤ dist(0), so it lies in
	// [p2 − dist(0), p2 + dist(0)].
	d0 := dist(0)
	lo, hi := p2-d0, p2+d0
	const steps = 2048
	bestY, bestD := 0.0, d0
	for i := 0; i <= steps; i++ {
		y := lo + (hi-lo)*float64(i)/steps
		if dd := dist(y); dd < bestD {
			bestY, bestD = y, dd
		}
	}
	// Golden-section refinement around the best scanned cell.
	h := (hi - lo) / steps
	a, b := bestY-h, bestY+h
	const phi = 0.6180339887498949
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := dist(x1), dist(x2)
	for i := 0; i < 120 && b-a > 1e-14*(1+math.Abs(a)+math.Abs(b)); i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = dist(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = dist(x2)
		}
	}
	if f1 < bestD {
		bestD = f1
	}
	if f2 < bestD {
		bestD = f2
	}
	return bestD
}
