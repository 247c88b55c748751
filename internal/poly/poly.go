// Package poly provides Quartic4, a closed-form real-root solver for
// polynomials of degree ≤ 4 — one solver per degree, quad2 and cubic3 below
// it. The quartic solver is the O(1) primitive that Algorithm Hyperbola
// (Section 4.3.2 of the paper) relies on to stay O(d) overall: Eq. (14)
// reduces the Lagrange conditions of the minimum-distance problem to a
// single quartic in the multiplier λ.
//
// The solvers return only real roots, deduplicated, in ascending order;
// cubic3 and Quartic4 polish each root with a few Newton iterations against
// the original polynomial so that downstream geometric residuals stay small.
package poly

import (
	"math"
	"sort"
)

// eps is the relative tolerance used to decide that a leading coefficient
// has effectively vanished and the degree should be lowered.
const eps = 1e-12

// Eval evaluates the polynomial with coefficients c (c[0] is the leading
// coefficient) at x using Horner's rule.
func Eval(c []float64, x float64) float64 {
	var v float64
	for _, ci := range c {
		v = v*x + ci
	}
	return v
}

// EvalDeriv evaluates the derivative of the polynomial with coefficients c
// (c[0] leading) at x.
func EvalDeriv(c []float64, x float64) float64 {
	n := len(c) - 1
	var v float64
	for i, ci := range c[:n] {
		v = v*x + float64(n-i)*ci
	}
	return v
}

// residualOK reports whether x is, within floating-point backward error, a
// root of the polynomial c. The primary test is relative to the term
// majorant; the secondary test handles the degenerate neighbourhood of
// x ≈ 0 with a vanishing constant term, where the majorant itself goes to
// zero and any ratio test breaks down.
func residualOK(c []float64, x float64) bool {
	res := math.Abs(Eval(c, x))
	if res <= 2e-7*majorant(c, x) {
		return true
	}
	var mc float64
	for _, ci := range c {
		if a := math.Abs(ci); a > mc {
			mc = a
		}
	}
	scale := mc
	if ax := math.Abs(x); ax > 1 {
		for i := 1; i < len(c); i++ {
			scale *= ax
		}
	}
	return res <= 1e-9*scale
}

// majorant returns Σ|c_i|·|x|^(n−i), an upper bound on the magnitude the
// polynomial's terms can reach at x; residuals are judged relative to it.
func majorant(c []float64, x float64) float64 {
	ax := math.Abs(x)
	var m float64
	for _, ci := range c {
		m = m*ax + math.Abs(ci)
	}
	if m < 1e-300 {
		m = 1e-300
	}
	return m
}

// polish refines root x of the polynomial with coefficients c (c[0]
// leading) with up to 8 damped Newton iterations. It returns the refined
// root, or x unchanged if Newton does not improve the residual.
func polish(c []float64, x float64) float64 {
	best := x
	bestRes := math.Abs(Eval(c, x))
	cur := x
	for i := 0; i < 8; i++ {
		f := Eval(c, cur)
		df := EvalDeriv(c, cur)
		if df == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			break
		}
		next := cur - f/df
		res := math.Abs(Eval(c, next))
		if math.IsNaN(next) || math.IsInf(next, 0) {
			break
		}
		if res < bestRes {
			best, bestRes = next, res
		}
		if next == cur {
			break
		}
		cur = next
	}
	return best
}

// scanRoots is a slow, provably-complete fallback used when the closed-form
// path misbehaves on ill-conditioned coefficients. Real roots of a
// polynomial are separated by the real roots of its derivative, so the
// derivative's roots (degree ≤ 3, found recursively in closed form) split
// the real line into intervals on which the polynomial is monotone; each
// interval whose endpoint values change sign is bisected.
func scanRoots(c []float64) []float64 {
	// Strip a negligible leading coefficient so the derivative split works
	// on the true degree.
	for len(c) > 1 && degenerate(c...) {
		c = c[1:]
	}
	n := len(c) - 1
	switch n {
	case 0:
		return nil
	case 1: // a zero leading coefficient makes quad2 the linear solve
		r, m := quad2(0, c[0], c[1])
		return r[:m]
	case 2:
		r, m := quad2(c[0], c[1], c[2])
		return r[:m]
	}

	// Critical points of the polynomial = roots of its derivative, a
	// quadratic or (for the quartic, the highest degree scanRoots sees) a
	// cubic.
	var crits []float64
	if n == 3 {
		r, m := quad2(3*c[0], 2*c[1], c[2])
		crits = r[:m]
	} else {
		r, m := cubic3(4*c[0], 3*c[1], 2*c[2], c[3])
		crits = r[:m]
	}

	// Cauchy bound on root magnitude.
	lead := math.Abs(c[0])
	bound := 1.0
	for _, ci := range c[1:] {
		if m := math.Abs(ci)/lead + 1; m > bound {
			bound = m
		}
	}
	pts := make([]float64, 0, len(crits)+2)
	pts = append(pts, -bound)
	for _, cr := range crits {
		if cr > -bound && cr < bound {
			pts = append(pts, cr)
		}
	}
	pts = append(pts, bound)
	sort.Float64s(pts)

	var roots []float64
	for i := 0; i+1 < len(pts); i++ {
		lo, hi := pts[i], pts[i+1]
		flo, fhi := Eval(c, lo), Eval(c, hi)
		switch {
		case flo == 0:
			roots = append(roots, lo)
		case flo*fhi < 0:
			roots = append(roots, bisect(c, lo, hi))
		}
	}
	if f := Eval(c, pts[len(pts)-1]); f == 0 {
		roots = append(roots, pts[len(pts)-1])
	}
	// A repeated root touches zero at a critical point without a sign
	// change; pick those up by residual.
	for _, cr := range crits {
		if math.Abs(Eval(c, cr)) <= 1e-9*majorant(c, cr) {
			roots = append(roots, cr)
		}
	}
	for i, r := range roots {
		roots[i] = polish(c, r)
	}
	return roots[:sortDedup(roots)]
}

func bisect(c []float64, lo, hi float64) float64 {
	flo := Eval(c, lo)
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		fm := Eval(c, mid)
		if fm == 0 || hi-lo < 1e-15*(math.Abs(lo)+math.Abs(hi)+1) {
			return mid
		}
		if flo*fm < 0 {
			hi = mid
		} else {
			lo, flo = mid, fm
		}
	}
	return (lo + hi) / 2
}

// degenerate reports whether the leading coefficient c[0] is negligible
// relative to the remaining coefficients.
func degenerate(c ...float64) bool {
	lead := math.Abs(c[0])
	if lead == 0 {
		return true
	}
	var m float64
	for _, ci := range c[1:] {
		if a := math.Abs(ci); a > m {
			m = a
		}
	}
	return lead < eps*m
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
