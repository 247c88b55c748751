// Package poly provides Quartic4, the real-root solver for polynomials of
// degree ≤ 4 that Algorithm Hyperbola (Section 4.3.2 of the paper) relies on
// to stay O(d) overall: Eq. (14) reduces the Lagrange conditions of the
// minimum-distance problem to a single quartic in the multiplier λ.
//
// The solver is complete by construction, not by testing what a closed form
// returned: the real roots of a polynomial are separated by those of its
// derivative, found first (recursively, down to the closed-form quadratic),
// so each monotone piece between them brackets at most one root, which a
// safeguarded Newton/bisection iteration settles. Roots come out sorted and
// distinct, and nothing is allocated.
package poly

import "math"

// eps is the relative tolerance used to decide that a leading coefficient
// has effectively vanished and the degree should be lowered.
const eps = 1e-12

// touch is the relative size, against the term majorant Σ|cᵢ|·|x|^(n−i), at
// or below which the polynomial counts as zero at a critical point. Horner's
// rule evaluates a degree-n polynomial to within 2n·2⁻⁵³ of the majorant
// (≤ 8.9e-16 at n = 4); touch leaves ten times that for the rounding of the
// coefficients and of the critical point itself.
const touch = 1e-14

// Eval evaluates the polynomial with coefficients c (c[0] is the leading
// coefficient) at x using Horner's rule.
func Eval(c []float64, x float64) float64 {
	var v float64
	for _, ci := range c {
		v = v*x + ci
	}
	return v
}

// EvalDeriv evaluates the polynomial with coefficients c (c[0] leading) and
// its derivative at x, in one Horner pass.
func EvalDeriv(c []float64, x float64) (f, df float64) {
	f = c[0]
	for _, ci := range c[1:] {
		df = df*x + f
		f = f*x + ci
	}
	return f, df
}

// majorant returns Σ|c_i|·|x|^(n−i), an upper bound on the magnitude the
// polynomial's terms can reach at x; rounding is judged relative to it.
func majorant(c []float64, x float64) float64 {
	ax := math.Abs(x)
	var m float64
	for _, ci := range c {
		m = m*ax + math.Abs(ci)
	}
	return m
}

// Quartic4 returns the real roots of a·x⁴ + b·x³ + c·x² + d·x + e = 0 in
// ascending order, each once, without heap allocation — the solver the
// Hyperbola criterion uses per dominance query. A leading coefficient below
// 1e-12 of the largest other one counts as zero.
func Quartic4(a, b, c, d, e float64) ([4]float64, int) {
	var out [4]float64
	coef := [5]float64{a, b, c, d, e}
	return out, isolate(coef[:], out[:])
}

// isolate writes the real roots of the polynomial c (c[0] leading, degree
// ≤ 4) to out in ascending order and returns how many it wrote. The
// derivative's real roots and ∓ a root bound cut the line into pieces on
// which c is monotone. Walking them left to right, a piece whose ends differ
// strictly in sign brackets one root, and a critical point where c touches
// zero is a root itself; its value is then taken as exactly zero, so that
// neither neighbouring piece brackets it again.
func isolate(c, out []float64) int {
	for len(c) > 3 && degenerate(c...) {
		c = c[1:]
	}
	if len(c) <= 3 {
		var q [3]float64
		copy(q[3-len(c):], c)
		r, n := quad2(q[0], q[1], q[2])
		return copy(out, r[:n])
	}
	n := len(c) - 1
	var dc [4]float64
	for i, ci := range c[:n] {
		dc[i] = float64(n-i) * ci
	}
	var crit [3]float64
	m := isolate(dc[:n], crit[:])

	bound := rootBound(c)
	lo := -bound
	flo := Eval(c, lo)
	k := 0
	for i := 0; i <= m; i++ {
		hi := bound
		if i < m {
			if hi = crit[i]; !(hi > lo && hi < bound) {
				continue
			}
		}
		fhi := Eval(c, hi)
		if i < m && math.Abs(fhi) <= touch*majorant(c, hi) {
			fhi = 0 // a touching root
		}
		if flo < 0 && fhi > 0 || flo > 0 && fhi < 0 {
			x := start(c, lo, hi, flo, fhi, lo > -bound, i < m)
			out[k] = refine(c, lo, hi, x, flo < 0)
			k++
		}
		if fhi == 0 {
			out[k] = hi
			k++
		}
		lo, flo = hi, fhi
	}
	return k
}

// rootBound returns twice Fujiwara's bound 2·max|cᵢ/c₀|^(1/i) (the constant
// term's ratio halved), so every real root of c lies strictly inside
// (−bound, bound) and c takes the leading term's signs at its ends.
func rootBound(c []float64) float64 {
	n := len(c) - 1
	var m float64
	for i := 1; i <= n; i++ {
		r := math.Abs(c[i] / c[0])
		if i == n {
			r /= 2
		}
		switch i {
		case 2:
			r = math.Sqrt(r)
		case 3:
			r = math.Cbrt(r)
		case 4:
			r = math.Sqrt(math.Sqrt(r))
		}
		m = max(m, r)
	}
	if m == 0 { // c is c₀·xⁿ: the root is 0
		return 1
	}
	return 4 * m
}

// start returns where refine begins on the piece (lo, hi) whose ends, of
// values flo and fhi, are critical points as loCrit and hiCrit report. From
// a critical point e, the quadratic model f(e) + f″(e)·(x−e)²/2 puts the root
// at e ± √(−2f(e)/f″(e)); the end with the smaller |f| is used. A piece with
// no critical end, or a model that leaves it, starts at its midpoint.
func start(c []float64, lo, hi, flo, fhi float64, loCrit, hiCrit bool) float64 {
	mid := lo + (hi-lo)/2
	e, fe, dir := lo, flo, 1.0
	if hiCrit && (!loCrit || math.Abs(fhi) < math.Abs(flo)) {
		e, fe, dir = hi, fhi, -1
	} else if !loCrit {
		return mid
	}
	f, d1, d2 := c[0], 0.0, 0.0 // d2 = f″(e)/2
	for _, ci := range c[1:] {
		d2 = d2*e + d1
		d1 = d1*e + f
		f = f*e + ci
	}
	if x := e + dir*math.Sqrt(-fe/d2); x > lo && x < hi {
		return x
	}
	return mid
}

// refine returns the root of c inside (lo, hi), a piece on which c is
// monotone and changes sign, starting from x; rising reports c(lo) < 0 <
// c(hi). Each iterate shrinks the bracket to the side holding the root; the
// Newton step is taken when it stays inside, bisection otherwise. It stops
// when the step does not move the iterate or leaves the bracket from a zero
// to rounding (touch), or when the bracket is two adjacent floats.
func refine(c []float64, lo, hi, x float64, rising bool) float64 {
	for i := 0; i < 256; i++ {
		f, df := EvalDeriv(c, x)
		if f == 0 {
			break
		}
		if f < 0 == rising {
			lo = x
		} else {
			hi = x
		}
		next := x - f/df
		if next == x {
			break
		}
		if !(next > lo && next < hi) {
			if next = lo + (hi-lo)/2; next == lo || next == hi || math.Abs(f) <= touch*majorant(c, x) {
				break
			}
		}
		x = next
	}
	return x
}

// quad2 returns the real roots of a·x² + b·x + c = 0 in ascending order,
// each once. It degrades to linear when a is negligible; a vertex where the
// parabola touches zero to rounding is a double root.
func quad2(a, b, c float64) ([2]float64, int) {
	var out [2]float64
	if degenerate(a, b, c) {
		if b == 0 {
			return out, 0
		}
		out[0] = -c / b
		return out, 1
	}
	disc := b*b - 4*a*c
	if disc <= 0 {
		out[0] = -b / (2 * a)
		if v := []float64{a, b, c}; disc == 0 || math.Abs(Eval(v, out[0])) <= touch*majorant(v, out[0]) {
			return out, 1
		}
		return out, 0
	}
	q := -0.5 * (b + math.Copysign(math.Sqrt(disc), b))
	r1, r2 := q/a, c/q
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	out[0], out[1] = r1, r2
	if r1 == r2 {
		return out, 1
	}
	return out, 2
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
		m = max(m, math.Abs(ci))
	}
	return lead < eps*m
}
