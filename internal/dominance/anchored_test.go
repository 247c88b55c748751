package dominance

import (
	"math/rand"
	"testing"
)

// TestAnchoredMatchesHyperbola drives one anchor (Sa, Sq) through many
// candidates — the kNN final filter's usage — across every instance flavour
// randInstance produces; the verdict must equal Hyperbola's and
// PreparedPair's exactly, and the per-candidate path must not allocate.
func TestAnchoredMatchesHyperbola(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var an Anchored
	for _, d := range []int{1, 2, 3, 8, 16} {
		for trial := 0; trial < 400; trial++ {
			in := randInstance(rng, d)
			an.Reset(Hyperbola{}, in.sa, in.sq)
			for c := 0; c < 10; c++ {
				sb := in.sb
				if c > 0 {
					sb = randSphereT(rng, d, 10, 4)
				}
				want := Hyperbola{}.Dominates(in.sa, sb, in.sq)
				pp := PreparePair(in.sa, sb)
				if got, prep := an.Dominates(sb), pp.Dominates(in.sq); got != want || prep != want {
					t.Fatalf("d=%d: Anchored=%v PreparedPair=%v Hyperbola=%v\nsa=%v\nsb=%v\nsq=%v",
						d, got, prep, want, in.sa, sb, in.sq)
				}
			}
		}
	}
	in := randInstance(rng, 8)
	an.Reset(Hyperbola{}, in.sa, in.sq)
	if allocs := testing.AllocsPerRun(200, func() { an.Dominates(in.sb) }); allocs != 0 {
		t.Errorf("Anchored.Dominates allocated %.1f times per run, want 0", allocs)
	}
}
