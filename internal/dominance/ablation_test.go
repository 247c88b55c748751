package dominance

import (
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
)

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
