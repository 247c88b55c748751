package poly

import (
	"math"
	"sort"
	"testing"
)

// FuzzQuartic drives the solver with arbitrary coefficients. It must never
// panic; roots come back finite, strictly ascending and with a residual at
// rounding level; and the set is complete: on a grid across the root bound
// that includes the returned roots, wherever the polynomial's sign (taken
// only where |f| clears rounding) changes between neighbouring grid points,
// a returned root lies between them.
func FuzzQuartic(f *testing.F) {
	f.Add(1.0, -10.0, 35.0, -50.0, 24.0)
	f.Add(0.0, 1.0, -6.0, 11.0, -6.0)
	f.Add(1.0, 0.0, 0.0, 0.0, 1.0)
	f.Add(-2.334134318587408e-06, -0.0022339859592858656, -0.6125581218717506, 0.09412998341831239, 4.190641305599159)
	f.Add(1e-300, 1.0, 1.0, 1.0, 1.0)
	f.Add(1.0, -4.2912082339970626e-10, 1.6043515462488586e-05, -1.2162530464695561e-12, 1.3047987719085428e-22)  // two small roots
	f.Add(1.0, -9.100082438805893e-09, -2.4196036168098222e-09, -7.826603604072438e-13, 1.7805684503228625e-21)   // tangency pair
	f.Add(-0.007911384105893926, 2.9776283916547297, -188.15575282615745, -17.71927781125026, 0.1676771871537866) // four roots, two lost
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		for _, v := range []float64{a, b, c, d, e} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				t.Skip()
			}
		}
		arr, n := Quartic4(a, b, c, d, e)
		roots := arr[:n]
		coef := []float64{a, b, c, d, e}
		for len(coef) > 1 && degenerate(coef...) {
			coef = coef[1:] // the degree Quartic4 solves at
		}
		for i, r := range roots {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("non-finite root %v", r)
			}
			if i > 0 && !(roots[i-1] < r) {
				t.Fatalf("roots not strictly ascending: %v", roots)
			}
			if res, m := math.Abs(Eval(coef, r)), majorant(coef, r); res > 1e-12*m {
				t.Fatalf("root %v has residual %v (majorant %v)", r, res, m)
			}
		}
		if len(coef) < 2 {
			return
		}
		// Cauchy's bound: every root has |x| < 1 + max|cᵢ/c₀|.
		bound := 1.0
		for _, ci := range coef[1:] {
			bound = max(bound, 1+math.Abs(ci/coef[0]))
		}
		grid := append([]float64{}, roots...)
		for i := -512; i <= 512; i++ {
			grid = append(grid, bound*float64(i)/512)
		}
		for x := bound; x > 1e-300; x /= 2 {
			grid = append(grid, x, -x)
		}
		sort.Float64s(grid)
		last, lastSign := 0.0, 0.0
		for _, x := range grid {
			v := Eval(coef, x)
			if math.Abs(v) <= 1e-12*majorant(coef, x) {
				continue // sign not certain at rounding level
			}
			s := math.Copysign(1, v)
			if lastSign != 0 && s != lastSign {
				i := sort.SearchFloat64s(roots, last)
				if i == len(roots) || roots[i] > x {
					t.Fatalf("sign change in [%v, %v] but roots %v", last, x, roots)
				}
			}
			last, lastSign = x, s
		}
	})
}

// FuzzCubicHasRoot: every genuine cubic has at least one real root. A zero
// leading coefficient makes Quartic4 the cubic solve.
func FuzzCubicHasRoot(f *testing.F) {
	f.Add(1.0, 0.0, 0.0, -8.0)
	f.Add(3.0, -1.0, 2.0, 5.0)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				t.Skip()
			}
		}
		// Only exercise genuine cubics: a clearly dominant leading term.
		m := math.Max(math.Abs(b), math.Max(math.Abs(c), math.Abs(d)))
		if math.Abs(a) < 1e-6*(1+m) {
			t.Skip()
		}
		if _, n := Quartic4(0, a, b, c, d); n == 0 {
			t.Fatalf("cubic %v %v %v %v returned no real roots", a, b, c, d)
		}
	})
}
