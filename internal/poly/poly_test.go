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
	if got := EvalDeriv([]float64{2, 0, -3, 1}, 2); got != 21 {
		t.Errorf("EvalDeriv = %v, want 21", got)
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
			r, n := cubic3(tc.a, tc.b, tc.c, tc.d)
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
		_, n := cubic3(a, r.NormFloat64()*10, r.NormFloat64()*10, r.NormFloat64()*10)
		return n >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestScanRootsFallback(t *testing.T) {
	// (x−1)(x+1)(x−3)(x+3) = x⁴ −10x² + 9
	got := scanRoots([]float64{1, 0, -10, 0, 9})
	assertRoots(t, got, []float64{-3, -1, 1, 3}, 1e-6)
}

// TestSolversDoNotAllocate pins the hot path's contract: a well-conditioned
// quartic or cubic is solved without touching the heap.
func TestSolversDoNotAllocate(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { Quartic4(1, -10, 35, -50, 24) }); a != 0 {
		t.Errorf("Quartic4: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { cubic3(1, -6, 11, -6) }); a != 0 {
		t.Errorf("cubic3: %v allocs/op, want 0", a)
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
