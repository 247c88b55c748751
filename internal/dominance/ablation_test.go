package dominance

import (
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/poly"
)

// HyperbolaLambda is the ablation variant of the Hyperbola criterion that
// solves the quartic of Eq. (14) literally in the Lagrange multiplier λ, as
// printed in the paper, instead of in the transformed variable y of Eq. (13)
// that the default implementation uses.
//
// The two are mathematically identical (y = p2/(1 + 4r²λ) is a Möbius map
// between the roots), but their numerics differ when the combined radius
// rab is small relative to the focal distance: the λ form's coefficients
// span ten or more orders of magnitude (its leading one can fall below the
// solver's degree-lowering threshold), while the y form's stay within a few
// but carry a near-double root (the feet on the two branches).
// BenchmarkAblationQuartic times both; the agreement tests below confirm
// the verdicts match.
type HyperbolaLambda struct{}

// Name implements Criterion.
func (HyperbolaLambda) Name() string { return "Hyperbola-λ" }

// Correct implements Criterion.
func (HyperbolaLambda) Correct() bool { return true }

// Sound implements Criterion.
func (HyperbolaLambda) Sound() bool { return true }

// Dominates implements Criterion.
func (HyperbolaLambda) Dominates(sa, sb, sq geom.Sphere) bool {
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
	return lambdaDmin(red) > sq.Radius
}

// lambdaDmin mirrors hyperbolaDmin but runs the paper's λ-quartic,
// Eq. (14), with the back-substitutions of Eqs. (12)–(13).
func lambdaDmin(red reduced) float64 {
	alpha, rab, p1, p2 := red.alpha, red.rab, red.p1, red.p2
	if red.line {
		return math.Abs(p1 + rab/2)
	}
	if rab == 0 {
		return math.Abs(p1)
	}
	hA := rab / 2
	b2 := (alpha - hA) * (alpha + hA)

	distToY := func(y float64) float64 {
		x := -hA * math.Sqrt(1+y*y/b2)
		return math.Hypot(p1-x, p2-y)
	}

	dmin := distToY(0)
	if y := p2 * b2 / (alpha * alpha); y != 0 {
		if dd := distToY(y); dd < dmin {
			dmin = dd
		}
	}
	if x := p1 * hA * hA / (alpha * alpha); x < 0 {
		if y2 := b2 * (x*x/(hA*hA) - 1); y2 > 0 {
			if dd := distToY(math.Sqrt(y2)); dd < dmin {
				dmin = dd
			}
		}
	}

	// Eq. (14) verbatim, scale-normalised by max(α, rab) so the aᵢ do not
	// overflow; the conditioning pathology this ablation demonstrates is
	// about coefficient *spread*, which normalisation cannot remove.
	s := 1 / math.Max(alpha, rab)
	sa, sr, sp1, sp2 := alpha*s, rab*s, p1*s, p2*s
	a1 := (16*sa*sa - 4*sr*sr) * sp1 * sp1
	a2 := sr*sr*sr*sr - 4*sr*sr*sa*sa
	a3 := 4 * sr * sr * sp2 * sp2
	a4 := 4 * sr * sr
	a5 := 4*sr*sr - 16*sa*sa

	qa := a2 * a4 * a4 * a5 * a5
	qb := 2*a2*a4*a4*a5 + 2*a2*a4*a5*a5
	qc := a1*a4*a4 + a2*a4*a4 + 4*a2*a4*a5 + a2*a5*a5 - a3*a5*a5
	qd := 2*a1*a4 + 2*a2*a4 + 2*a2*a5 - 2*a3*a5
	qe := a1 + a2 - a3

	roots, n := poly.Quartic4(qa, qb, qc, qd, qe)
	for _, lambda := range roots[:n] {
		den := 1 + a4*lambda
		if math.Abs(den) < 1e-14 {
			continue // the p2 = 0 family, covered in closed form above
		}
		// Eq. (13): y = cq[2]/(4r²λ + 1); the normalisation scale cancels.
		y := p2 / den
		if dd := distToY(y); dd < dmin {
			dmin = dd
		}
	}
	return dmin
}

// TestLambdaVariantAgreesWithDefault: the λ-quartic ablation and the
// default y-quartic implementation decide the same instances identically
// (both are exact; only their numerics differ).
func TestLambdaVariantAgreesWithDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := Hyperbola{}
	l := HyperbolaLambda{}
	for i := 0; i < 40000; i++ {
		d := 1 + rng.Intn(8)
		in := randInstance(rng, d)
		if nearBoundary(in, 1e-6) {
			continue
		}
		if h.Dominates(in.sa, in.sb, in.sq) != l.Dominates(in.sa, in.sb, in.sq) {
			t.Fatalf("variants disagree (i=%d)\nsa=%v\nsb=%v\nsq=%v", i, in.sa, in.sb, in.sq)
		}
	}
}

// TestLambdaVariantSmallRadiusRegime: the regime that motivated the
// variable change — tiny radii against large focal distances, as in the
// NBA dataset. Both variants must stay exact.
func TestLambdaVariantSmallRadiusRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 3000; i++ {
		d := 2 + rng.Intn(6)
		sa := randSphereT(rng, d, 800, 6)
		sb := randSphereT(rng, d, 800, 6)
		sq := randSphereT(rng, d, 800, 6)
		if geom.Overlap(sa, sb) {
			continue
		}
		in := instance{sa, sb, sq}
		if nearBoundary(in, 1e-5) {
			continue
		}
		want := Exact{}.Dominates(sa, sb, sq)
		if got := (Hyperbola{}).Dominates(sa, sb, sq); got != want {
			t.Fatalf("default variant wrong in small-radius regime (i=%d)", i)
		}
		if got := (HyperbolaLambda{}).Dominates(sa, sb, sq); got != want {
			t.Fatalf("λ variant wrong in small-radius regime (i=%d)", i)
		}
	}
}

// BenchmarkAblationQuartic contrasts the default y-variable quartic with
// the paper-literal λ quartic in the small-radius regime where their
// conditioning differs most.
func BenchmarkAblationQuartic(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	ins := make([]instance, 1024)
	for i := range ins {
		d := 2 + rng.Intn(6)
		ins[i] = instance{
			sa: randSphereT(rng, d, 800, 6),
			sb: randSphereT(rng, d, 800, 6),
			sq: randSphereT(rng, d, 800, 6),
		}
	}
	b.Run("y-quartic", func(b *testing.B) {
		h := Hyperbola{}
		for i := 0; i < b.N; i++ {
			in := ins[i%len(ins)]
			h.Dominates(in.sa, in.sb, in.sq)
		}
	})
	b.Run("lambda-quartic", func(b *testing.B) {
		h := HyperbolaLambda{}
		for i := 0; i < b.N; i++ {
			in := ins[i%len(ins)]
			h.Dominates(in.sa, in.sb, in.sq)
		}
	})
}
