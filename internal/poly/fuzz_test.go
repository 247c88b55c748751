package poly

import (
	"math"
	"testing"
)

// FuzzQuartic drives the solver with arbitrary coefficients: it must never
// panic, every returned root must have a small residual relative to the
// coefficient majorant, and roots must come back sorted.
func FuzzQuartic(f *testing.F) {
	f.Add(1.0, -10.0, 35.0, -50.0, 24.0)
	f.Add(0.0, 1.0, -6.0, 11.0, -6.0)
	f.Add(1.0, 0.0, 0.0, 0.0, 1.0)
	f.Add(-2.334134318587408e-06, -0.0022339859592858656, -0.6125581218717506, 0.09412998341831239, 4.190641305599159)
	f.Add(1e-300, 1.0, 1.0, 1.0, 1.0)
	f.Add(1.0, -4.2912082339970626e-10, 1.6043515462488586e-05, -1.2162530464695561e-12, 1.3047987719085428e-22) // two small roots
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		for _, v := range []float64{a, b, c, d, e} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				t.Skip()
			}
		}
		coef := []float64{a, b, c, d, e}
		arr, n := Quartic4(a, b, c, d, e)
		roots := arr[:n]
		for i, r := range roots {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("non-finite root %v", r)
			}
			if i > 0 && roots[i-1] > r {
				t.Fatalf("roots not sorted: %v", roots)
			}
			if !residualOK(coef, r) {
				t.Fatalf("root %v has residual %v (majorant %v)", r, math.Abs(Eval(coef, r)), majorant(coef, r))
			}
		}
	})
}

// FuzzCubicHasRoot: every genuine cubic has at least one real root.
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
		if _, n := cubic3(a, b, c, d); n == 0 {
			t.Fatalf("cubic %v %v %v %v returned no real roots", a, b, c, d)
		}
	})
}
