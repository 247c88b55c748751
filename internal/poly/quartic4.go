package poly

import (
	"cmp"
	"math"
)

// This file holds the allocation-free solvers. The hypersphere dominance
// operator solves one quartic per call on its hot path, so the closed-form
// machinery works in fixed-size arrays. Heap allocation only happens on the
// rare ill-conditioned fallback through scanRoots.

// quad2 returns the real roots of a·x² + b·x + c = 0 in ascending order
// without allocating. Degrades to linear when a is negligible.
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
	if disc < 0 {
		return out, 0
	}
	if disc == 0 {
		out[0] = -b / (2 * a)
		return out, 1
	}
	q := -0.5 * (b + math.Copysign(math.Sqrt(disc), b))
	r1 := q / a
	r2 := c / q
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	out[0], out[1] = r1, r2
	return out, 2
}

// cubic3 returns the real roots of a·x³ + b·x² + c·x + d = 0 in ascending
// order without allocating on the common path.
func cubic3(a, b, c, d float64) ([3]float64, int) {
	var out [3]float64
	if degenerate(a, b, c, d) {
		r2, n := quad2(b, c, d)
		copy(out[:], r2[:n])
		return out, n
	}
	B, C, D := b/a, c/a, d/a
	sh := B / 3
	p := C - B*B/3
	q := 2*B*B*B/27 - B*C/3 + D

	n := 0
	half := q / 2
	third := p / 3
	disc := half*half + third*third*third
	switch {
	case disc > 0:
		s := math.Sqrt(disc)
		u := math.Cbrt(-half + s)
		v := math.Cbrt(-half - s)
		out[0] = u + v - sh
		n = 1
	case disc == 0:
		if q == 0 {
			out[0] = -sh
			n = 1
		} else {
			u := math.Cbrt(-half)
			out[0], out[1] = 2*u-sh, -u-sh
			n = 2
		}
	default:
		r := math.Sqrt(-third * third * third)
		cosphi := clamp(-half/r, -1, 1)
		phi := math.Acos(cosphi)
		m := 2 * math.Sqrt(-third)
		out[0] = m*math.Cos(phi/3) - sh
		out[1] = m*math.Cos((phi+2*math.Pi)/3) - sh
		out[2] = m*math.Cos((phi+4*math.Pi)/3) - sh
		n = 3
	}
	coef := [4]float64{a, b, c, d}
	kept := 0
	dropped := false
	for i := 0; i < n; i++ {
		x := polish(coef[:], out[i])
		if residualOK(coef[:], x) {
			out[kept] = x
			kept++
		} else {
			dropped = true
		}
	}
	if dropped {
		// Rare: recover through the provably-complete splitting fallback.
		rs := scanRoots([]float64{a, b, c, d})
		var arr [3]float64
		m := copy(arr[:], rs)
		return arr, m
	}
	kept = sortDedup(out[:kept])
	return out, kept
}

// Quartic4 returns the real roots of a·x⁴ + b·x³ + c·x² + d·x + e = 0 in
// ascending order without heap allocation on the common path — the solver
// the Hyperbola criterion uses per dominance query.
func Quartic4(a, b, c, d, e float64) ([4]float64, int) {
	var out [4]float64
	if degenerate(a, b, c, d, e) {
		r3, n := cubic3(b, c, d, e)
		copy(out[:], r3[:n])
		return out, n
	}
	B, C, D, E := b/a, c/a, d/a, e/a
	sh := B / 4
	B2 := B * B
	p := C - 3*B2/8
	q := D - B*C/2 + B2*B/8
	r := E - B*D/4 + B2*C/16 - 3*B2*B2/256

	var troots [4]float64
	nt := 0
	if math.Abs(q) < eps*(1+math.Abs(p)+math.Abs(r)) {
		ys, ny := quad2(1, p, r)
		for i := 0; i < ny; i++ {
			y := ys[i]
			if y > 0 {
				s := math.Sqrt(y)
				troots[nt], troots[nt+1] = -s, s
				nt += 2
			} else if y == 0 && nt < 4 {
				troots[nt] = 0
				nt++
			}
		}
	} else {
		res, nres := cubic3(1, -p, -4*r, 4*p*r-q*q)
		if nres == 0 {
			return fallback4(a, b, c, d, e)
		}
		y := res[0]
		for i := 1; i < nres; i++ {
			if res[i]-p > y-p {
				y = res[i]
			}
		}
		w2 := y - p
		if w2 < 0 {
			if w2 > -1e-9*(1+math.Abs(p)) {
				w2 = 0
			} else {
				return fallback4(a, b, c, d, e)
			}
		}
		w := math.Sqrt(w2)
		var u, v float64
		if w == 0 {
			h2 := y*y/4 - r
			if h2 < 0 {
				h2 = 0
			}
			h := math.Sqrt(h2)
			u, v = y/2+h, y/2-h
		} else {
			u = y/2 - q/(2*w)
			v = y/2 + q/(2*w)
		}
		r1, n1 := quad2(1, w, u)
		for i := 0; i < n1; i++ {
			troots[nt] = r1[i]
			nt++
		}
		r2, n2 := quad2(1, -w, v)
		for i := 0; i < n2; i++ {
			troots[nt] = r2[i]
			nt++
		}
	}
	if nt == 0 {
		// Either genuinely rootless or Ferrari lost the roots; settle it
		// with the complete fallback.
		return fallback4(a, b, c, d, e)
	}
	coef := [5]float64{a, b, c, d, e}
	kept := 0
	dropped := false
	for i := 0; i < nt; i++ {
		x := polish(coef[:], troots[i]-sh)
		if residualOK(coef[:], x) {
			out[kept] = x
			kept++
		} else {
			dropped = true
		}
	}
	if dropped {
		return fallback4(a, b, c, d, e)
	}
	kept = sortDedup(out[:kept])
	return out, kept
}

// fallback4 routes through the slow, provably-complete splitting solver.
func fallback4(a, b, c, d, e float64) ([4]float64, int) {
	var out [4]float64
	rs := scanRoots([]float64{a, b, c, d, e})
	n := copy(out[:], rs)
	return out, n
}

// sortDedup sorts xs ascending (insertion sort with sort.Float64s' order,
// NaN first: xs holds at most eight roots), merges neighbours closer than
// 1e-7 of their magnitudes in place and returns how many distinct roots
// remain at its front. The tolerance is relative all the way down to zero:
// an absolute floor would merge distinct roots that are small, and through
// cubic3 the critical points scanRoots brackets roots with.
func sortDedup(xs []float64) int {
	if len(xs) == 0 {
		return 0
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && cmp.Less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	m := 1
	for _, x := range xs[1:] {
		last := xs[m-1]
		if x-last > 1e-7*(math.Abs(x)+math.Abs(last)) {
			xs[m] = x
			m++
		}
	}
	return m
}
