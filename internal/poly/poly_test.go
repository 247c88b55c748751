package poly

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEval(t *testing.T) {
	// 2x³ − 3x + 1 at x = 2 → 16 − 6 + 1 = 11
	if got := Eval([]float64{2, 0, -3, 1}, 2); got != 11 {
		t.Errorf("Eval = %v, want 11", got)
	}
	if got := Eval([]float64{5}, 100); got != 5 {
		t.Errorf("Eval constant = %v, want 5", got)
	}
}

func TestEvalDeriv(t *testing.T) {
	// d/dx (2x³ − 3x + 1) = 6x² − 3, at x = 2 → 21
	if f, df := EvalDeriv([]float64{2, 0, -3, 1}, 2); f != 11 || df != 21 {
		t.Errorf("EvalDeriv = %v, %v, want 11, 21", f, df)
	}
}

// TestLinear: with a zero leading coefficient quad2 is the linear solve.
func TestLinear(t *testing.T) {
	if r, n := quad2(0, 2, -4); n != 1 || r[0] != 2 {
		t.Errorf("quad2(0, 2, -4) = %v, want [2]", r[:n])
	}
	if r, n := quad2(0, 0, 1); n != 0 {
		t.Errorf("quad2(0, 0, 1) = %v, want no roots", r[:n])
	}
}

func TestQuadratic(t *testing.T) {
	tests := []struct {
		name    string
		a, b, c float64
		want    []float64
	}{
		{"two roots", 1, -5, 6, []float64{2, 3}},
		{"double root", 1, -4, 4, []float64{2}},
		{"no real roots", 1, 0, 1, nil},
		{"degenerate to linear", 0, 2, -6, []float64{3}},
		{"negative leading", -1, 0, 4, []float64{-2, 2}},
		{"cancellation-prone", 1, -1e8, 1, []float64{1e-8, 1e8}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r, n := quad2(tc.a, tc.b, tc.c)
			assertRoots(t, r[:n], tc.want, 1e-6)
		})
	}
}

// TestCubic: a zero leading coefficient makes Quartic4 the cubic solve.
func TestCubic(t *testing.T) {
	tests := []struct {
		name       string
		a, b, c, d float64
		want       []float64
	}{
		{"three roots", 1, -6, 11, -6, []float64{1, 2, 3}},
		{"one root", 1, 0, 0, -8, []float64{2}},
		{"triple root", 1, -3, 3, -1, []float64{1}},
		{"double+single", 1, -4, 5, -2, []float64{1, 2}}, // (x−1)²(x−2)
		{"degenerate to quadratic", 0, 1, -5, 6, []float64{2, 3}},
		{"root at zero", 1, 0, -4, 0, []float64{-2, 0, 2}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r, n := Quartic4(0, tc.a, tc.b, tc.c, tc.d)
			assertRoots(t, r[:n], tc.want, 1e-6)
		})
	}
}

func TestQuartic(t *testing.T) {
	tests := []struct {
		name          string
		a, b, c, d, e float64
		want          []float64
	}{
		{"four roots", 1, -10, 35, -50, 24, []float64{1, 2, 3, 4}},
		{"biquadratic", 1, 0, -5, 0, 4, []float64{-2, -1, 1, 2}},
		{"no real roots", 1, 0, 0, 0, 1, nil},
		{"two real roots", 1, 0, 0, 0, -1, []float64{-1, 1}},
		{"quadruple root", 1, -4, 6, -4, 1, []float64{1}},
		{"degenerate to cubic", 0, 1, -6, 11, -6, []float64{1, 2, 3}},
		{"double pair", 1, -6, 13, -12, 4, []float64{1, 2}}, // (x−1)²(x−2)²
		{"mixed scale", 1, 0, -10001, 0, 10000, []float64{-100, -1, 1, 100}},
		// f(0) > 0, f < 0 on [2e-10, 5e-8], f > 0 from 7.58e-8 on: two roots
		// closer than 1e-7 but a factor 700 apart in magnitude, which an
		// absolute de-duplication floor merged.
		{"two small roots", 1, -4.2912082339970626e-10, 1.6043515462488586e-05, -1.2162530464695561e-12, 1.3047987719085428e-22, []float64{1.0743245e-10, 7.5702202e-08}},
		// Eq. (14) on an almost tangent pair (dominance's tangencyTriple):
		// f(5e-5) = −3.9e-17 and f(1.01e-4) = +3.2e-19, so past the root at
		// 2.3e-9 the quartic crosses zero again near 1.0e-4, the ordinate of
		// the distance minimiser. The closed-form solver returned only the first.
		{"tangency pair", 1, -9.100082438805893e-09, -2.4196036168098222e-09, -7.826603604072438e-13, 1.7805684503228625e-21, []float64{2.2750046e-09, 1.0088683e-04}},
		// Four real roots from TestQuarticResidualProperty's distribution, of
		// which the closed-form solver returned only the two largest.
		{"four roots, two lost", -0.007911384105893926, 2.9776283916547297, -188.15575282615745, -17.71927781125026, 0.1676771871537866, []float64{-0.10268513, 0.0086656878, 80.467487, 295.99916}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r, n := Quartic4(tc.a, tc.b, tc.c, tc.d, tc.e)
			assertRoots(t, r[:n], tc.want, 1e-5)
		})
	}
}

// Property: reconstruct a quartic from random roots; the solver must return
// all of them with small residual.
func TestQuarticFromRandomRootsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		roots := []float64{
			r.NormFloat64() * 10,
			r.NormFloat64() * 10,
			r.NormFloat64() * 10,
			r.NormFloat64() * 10,
		}
		sort.Float64s(roots)
		// Expand (x−r1)(x−r2)(x−r3)(x−r4).
		c := []float64{1}
		for _, root := range roots {
			c = mulLinear(c, root)
		}
		r4, n := Quartic4(c[0], c[1], c[2], c[3], c[4])
		got := r4[:n]
		// Every true root must be matched by some returned root.
		for _, want := range roots {
			matched := false
			for _, g := range got {
				if math.Abs(g-want) < 1e-4*(1+math.Abs(want)) {
					matched = true
					break
				}
			}
			if !matched {
				t.Logf("seed %d: roots %v, got %v", seed, roots, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every root returned by the solver has a small polynomial
// residual relative to the coefficient scale.
func TestQuarticResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := []float64{
			r.NormFloat64(), r.NormFloat64() * 10, r.NormFloat64() * 100,
			r.NormFloat64() * 10, r.NormFloat64(),
		}
		scale := 0.0
		for _, ci := range c {
			scale += math.Abs(ci)
		}
		if scale == 0 {
			return true
		}
		r4, n := Quartic4(c[0], c[1], c[2], c[3], c[4])
		for _, root := range r4[:n] {
			m := math.Abs(root)
			res := math.Abs(Eval(c, root))
			if res > 1e-6*scale*(1+m*m*m*m) {
				t.Logf("seed %d: coefs %v root %v residual %v", seed, c, root, res)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: cubic always returns at least one real root.
func TestCubicAlwaysHasRootProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := r.NormFloat64()
		if a == 0 {
			a = 1
		}
		_, n := Quartic4(0, a, r.NormFloat64()*10, r.NormFloat64()*10, r.NormFloat64()*10)
		return n >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestScanRootsFallback: a biquadratic with four symmetric roots, which the
// earlier closed-form solver handed to its bracketing fallback.
func TestScanRootsFallback(t *testing.T) {
	// (x−1)(x+1)(x−3)(x+3) = x⁴ −10x² + 9
	r, n := Quartic4(1, 0, -10, 0, 9)
	assertRoots(t, r[:n], []float64{-3, -1, 1, 3}, 1e-6)
}

// TestSolversDoNotAllocate pins the hot path's contract: every quartic and
// cubic is solved without touching the heap, including the ill-conditioned
// quartic (a small leading coefficient and four real roots) that the earlier
// closed-form solver sent to an allocating fallback.
func TestSolversDoNotAllocate(t *testing.T) {
	for _, c := range [][5]float64{
		{1, -10, 35, -50, 24},
		{0, 1, -6, 11, -6},
		{0.01068958561715011, 2.6670422284876594, -163.79442654359187, -8.767063329190014, 0.27395655804242647},
	} {
		if a := testing.AllocsPerRun(100, func() { Quartic4(c[0], c[1], c[2], c[3], c[4]) }); a != 0 {
			t.Errorf("Quartic4%v: %v allocs/op, want 0", c, a)
		}
	}
}

func assertRoots(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got roots %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Errorf("root %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// mulLinear multiplies polynomial c (leading first) by (x − root).
func mulLinear(c []float64, root float64) []float64 {
	out := make([]float64, len(c)+1)
	for i, ci := range c {
		out[i] += ci
		out[i+1] -= ci * root
	}
	return out
}
