package dominance

import (
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
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

// countingCrit counts the calls that reach the criterion it wraps.
type countingCrit struct {
	Criterion
	calls *int
}

func (c countingCrit) Dominates(sa, sb, sq geom.Sphere) bool {
	*c.calls++
	return c.Criterion.Dominates(sa, sb, sq)
}

// blockCandidates is a candidate block around one fuzzed triple: sb itself,
// Sa's own centre (coincident, overlapping), Sq's centre, candidates whose
// squared distance to ca overflows to +Inf, and rng-drawn spheres around
// sb at the triple's scale with radii from 0 to 2·rb.
func blockCandidates(rng *rand.Rand, sa, sb, sq geom.Sphere) []geom.Sphere {
	d := len(sa.Center)
	shifted := func(c []float64, by float64) []float64 {
		out := make([]float64, d)
		for i := range out {
			out[i] = c[i] + by
		}
		return out
	}
	scale := 1 + sa.Radius + sb.Radius + sq.Radius
	for i := range sa.Center {
		scale += math.Abs(sb.Center[i] - sa.Center[i])
	}
	cands := []geom.Sphere{
		sb,
		{Center: shifted(sa.Center, 0), Radius: sb.Radius},
		{Center: shifted(sq.Center, 0), Radius: sb.Radius},
		{Center: shifted(sa.Center, 1e200), Radius: sb.Radius},
		{Center: shifted(sq.Center, -1e300), Radius: 0},
	}
	for len(cands) < 48 {
		c := make([]float64, d)
		for i := range c {
			c[i] = sb.Center[i] + scale*rng.NormFloat64()
		}
		cands = append(cands, geom.Sphere{Center: c, Radius: 2 * sb.Radius * rng.Float64()})
	}
	return cands
}

// FuzzAnchoredBlockAgree: DominatesBlock's verdict on every candidate of a
// block equals Anchored.Dominates' and Hyperbola{}.Dominates', and the
// block leaves the kernel's obs tally — overlaps, coarse accepts, coarse
// rejects, quartics — exactly where one Dominates call per candidate
// leaves it. A criterion other than Hyperbola gets exactly one call per
// candidate, with its own verdicts. The seeds cover overlap and
// coincident centres, r = 0, da ≤ r (no local-Lipschitz step), squared
// distances overflowing to +Inf, and the accept-bound and certificate
// edges FuzzPreparedPairAgree is seeded with; d = 3 and its 1-D
// projection.
func FuzzAnchoredBlockAgree(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 1.0, 9.0, 0.0, 0.0, 1.0, -4.0, 0.0, 0.0, 2.0, int64(1))
	f.Add(0.0, 0.0, 0.0, 2.0, 3.0, 0.0, 0.0, 2.0, 10.0, 10.0, 0.0, 1.0, int64(2))      // overlap
	f.Add(1.0, 2.0, 3.0, 1.0, 1.0, 2.0, 3.0, 0.0, -4.0, 0.0, 0.0, 1.0, int64(3))       // coincident centres
	f.Add(0.0, 0.0, 0.0, 1.0, 9.0, 0.0, 0.0, 1.0, -4.0, 1.0, 0.0, 0.0, int64(4))       // r = 0
	f.Add(0.0, 0.0, 0.0, 1.0, 10.0, 0.0, 0.0, 1.0, 4.0, 0.0, 0.0, 0.0, int64(9))       // cq on Ra's boundary: db − da = rab exactly
	f.Add(0.0, 0.0, 0.0, 1.0, 9.0, 0.0, 0.0, 1.0, -1.0, 0.5, 0.0, 3.0, int64(5))       // da ≤ r
	f.Add(0.0, 0.0, 0.0, 0.0, 9.0, 1.0, 0.0, 0.0, -20.0, 3.0, 0.0, 0.5, int64(6))      // rab = 0
	f.Add(1e150, 0.0, 0.0, 1.0, -1e150, 1.0, 0.0, 2.0, 3e150, 0.0, 1.0, 1.0, int64(7)) // dcc² = +Inf
	f.Add(0.0, 0.0, 0.0, 1e-150, 9e-150, 0.0, 0.0, 1e-150, -4e-150, 1e-150, 0.0, 2e-150, int64(8))
	for i, e := range append(boundEdgeTriples(), certStageTriples()...) {
		f.Add(e[0], e[1], e[2], e[3], e[4], e[5], e[6], e[7], e[8], e[9], e[10], e[11], int64(100+i))
	}
	f.Fuzz(func(t *testing.T, ax, ay, az, ar, bx, by, bz, br, qx, qy, qz, qr float64, seed int64) {
		for _, v := range []float64{ax, ay, az, ar, bx, by, bz, br, qx, qy, qz, qr} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if ar < 0 || br < 0 || qr < 0 {
			t.Skip()
		}
		for _, d := range []int{3, 1} {
			sa := geom.Sphere{Center: []float64{ax, ay, az}[:d], Radius: ar}
			sb := geom.Sphere{Center: []float64{bx, by, bz}[:d], Radius: br}
			sq := geom.Sphere{Center: []float64{qx, qy, qz}[:d], Radius: qr}
			cands := blockCandidates(rand.New(rand.NewSource(seed)), sa, sb, sq)
			sbs := make([]*geom.Sphere, len(cands))
			for i := range cands {
				sbs[i] = &cands[i]
			}
			dom := make([]bool, len(cands))
			var one, blk Anchored
			var b Block
			one.Reset(Hyperbola{}, sa, sq)
			blk.Reset(Hyperbola{}, sa, sq)
			blk.DominatesBlock(sbs, dom, &b)
			for i, c := range cands {
				want, ref := one.Dominates(c), Hyperbola{}.Dominates(sa, c, sq)
				if dom[i] != want || want != ref {
					t.Fatalf("d=%d candidate %d: block=%v Anchored=%v Hyperbola=%v\nsa=%v\nsb=%v\nsq=%v", d, i, dom[i], want, ref, sa, c, sq)
				}
			}
			if blk.p.tally != one.p.tally {
				t.Fatalf("d=%d: block tally %+v, one call per candidate %+v", d, blk.p.tally, one.p.tally)
			}

			calls := 0
			blk.Reset(countingCrit{MinMax{}, &calls}, sa, sq)
			blk.DominatesBlock(sbs, dom, &b)
			if calls != len(cands) {
				t.Fatalf("d=%d: %d criterion calls for %d candidates", d, calls, len(cands))
			}
			for i, c := range cands {
				if want := (MinMax{}).Dominates(sa, c, sq); dom[i] != want {
					t.Fatalf("d=%d candidate %d: block=%v MinMax=%v", d, i, dom[i], want)
				}
			}
		}
	})
}
