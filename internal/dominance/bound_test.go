package dominance

import (
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
	"hyperdom/internal/vec"
)

// triple is one 3-D dominance instance in FuzzPreparedPairAgree's argument
// order: ax, ay, az, ar, bx, by, bz, br, qx, qy, qz, qr.
type triple [12]float64

func (e triple) spheres(d int) (sa, sb, sq geom.Sphere) {
	sa = geom.Sphere{Center: []float64{e[0], e[1], e[2]}[:d], Radius: e[3]}
	sb = geom.Sphere{Center: []float64{e[4], e[5], e[6]}[:d], Radius: e[7]}
	sq = geom.Sphere{Center: []float64{e[8], e[9], e[10]}[:d], Radius: e[11]}
	return sa, sb, sq
}

// coarseAcceptEdge returns the largest query radius at which one of
// verdict()'s O(1) accepts still settles the triple, found by bisection down
// to adjacent floats on the kernel's own coarse_accepts tally — so the test
// follows whatever the kernel's bound is without restating its formula. ok
// is false when no accept fires even for a near-point query.
func coarseAcceptEdge(e triple, d int) (r float64, ok bool) {
	defer obs.SetEnabled(obs.On())
	obs.SetEnabled(true)
	sa, sb, sq := e.spheres(d)
	fires := func(r float64) bool {
		pp := PreparePair(sa, sb)
		sq.Radius = r
		pp.Dominates(sq)
		return pp.tally.coarseAccepts == 1
	}
	da := vec.Dist(sq.Center, sa.Center)
	lo, hi := 1e-9*da, 4*da
	for fires(hi) && !math.IsInf(hi, 1) {
		hi *= 2 // the focal accept reaches past da when cb is far away
	}
	if !fires(lo) || fires(hi) {
		return 0, false
	}
	for {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			return lo, true
		}
		if fires(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
}

// boundEdgeTriples is the directed table at the edges of the local-Lipschitz
// accept (ISSUE 17): every geometry below is taken at radii within ±4 ulp of
// the point where the accept stops firing (slack = 0), plus the regions where
// one of the bound's terms degenerates. Shared by TestAcceptBoundEdges and,
// as seeds, by FuzzPreparedPairAgree.
func boundEdgeTriples() []triple {
	geometries := []triple{
		{0, 0, 0, 1, 20, 0, 0, 1, -30, 2, 0, 10},                                 // generic: cq behind ca, focal accept fails, bound holds
		{0, 0, 0, 0, 20, 0, 0, 0, -30, 2, 1, 10},                                 // rab = 0: the boundary is the bisector hyperplane
		{0, 0, 0, 1, 20, 0, 0, 1, -30, 1e-9, 0, 10},                              // ∠(ca,cq,cb) → 0: L² = dcc² − (db−da)² cancels
		{0, 0, 0, 1, 20, 0, 0, 1, -30, 0, 0, 10},                                 // ∠ = 0 exactly (and the d = 1 shape)
		{0, 0, 0, 1, 20, 0, 0, 1, 3, 1e-9, 0, 1},                                 // ∠ → π: cq between the foci, L → 2
		{0, 0, 0, 1, 20, 0, 0, 1, 3, 0, 0, 1},                                    // ∠ = π exactly
		{0, 0, 0, 1, 1e9, 0, 0, 1, -30, 2, 0, 10},                                // db ≫ da
		{0, 0, 0, 1, 1e6, 0, 0, 1e6 - 21, -30, 2, 0, 10},                         // db ≫ da with Sb huge, so the bound outlasts the focal accept
		{100, 100, 100, 7, 130, 95, 110, 9, 80, 104, 92, 10},                     // fat_d10-like magnitudes, off-axis
		{0, 0, 0, 2, 9, 0, 0, 2, -40, 30, 0, 10},                                 // strongly off-axis: the r·L term dominates
		{0, 0, 0, 4.9, 10, 0, 0, 5, -30, 2, 0, 10},                               // Sa, Sb almost tangent: Ra is a thin cone
		{1e150, 0, 0, 1e149, 3e150, 0, 0, 1e149, -2e150, 1e149, 0, 1e150},        // squares next to overflow
		{1e-150, 0, 0, 1e-151, 3e-150, 0, 0, 1e-151, -2e-150, 1e-151, 0, 1e-150}, // and to underflow
	}
	var out []triple
	for _, g := range geometries {
		out = append(out, g)
		for _, d := range []int{3, 1} {
			edge, ok := coarseAcceptEdge(g, d)
			if !ok {
				continue
			}
			for _, ulps := range []int{-4, -1, 0, 1, 4} {
				r := edge
				for i := 0; i < ulps; i++ {
					r = math.Nextafter(r, math.Inf(1))
				}
				for i := 0; i > ulps; i-- {
					r = math.Nextafter(r, 0)
				}
				e := g
				e[11] = r
				out = append(out, e)
			}
		}
	}
	// da → r⁺: the r²/(2(da−r)) term blows up as the query ball reaches for
	// ca, then the bound is skipped altogether (da ≤ r).
	for _, gap := range []float64{1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0, -1e-12} {
		out = append(out,
			triple{0, 0, 0, 0.5, 100, 0, 0, 0.5, -3 * (1 + gap), 0, 0, 3},
			triple{0, 0, 0, 0.5, 100, 0, 0, 0.5, -3 * (1 + gap), 0.1, 0, math.Hypot(3, 0.1)})
	}
	return out
}

// TestAcceptBoundEdges: at every edge of the accept bound the three Hyperbola
// forms return one verdict, in 3-D and on the 1-D projection; away from the
// decision boundary that verdict is the numeric oracle's, and the Monte-Carlo
// falsifier finds no witness against a "dominated".
func TestAcceptBoundEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var an Anchored
	for i, e := range boundEdgeTriples() {
		for _, d := range []int{3, 1} {
			sa, sb, sq := e.spheres(d)
			pp := PreparePair(sa, sb)
			an.Reset(Hyperbola{}, sa, sq)
			prep, anch, want := pp.Dominates(sq), an.Dominates(sb), Hyperbola{}.Dominates(sa, sb, sq)
			if prep != want || anch != want {
				t.Errorf("edge %d d=%d: PreparedPair=%v Anchored=%v Hyperbola=%v\nsa=%v\nsb=%v\nsq=%v", i, d, prep, anch, want, sa, sb, sq)
				continue
			}
			scale := math.Abs(e[8]) + math.Abs(e[4]) + e[11]
			if scale > 1e100 || scale < 1e-100 || nearBoundary(instance{sa, sb, sq}, 1e-7*scale) {
				continue // the oracle's scan is not built for the float64 range limits
			}
			if exact := (Exact{}).Dominates(sa, sb, sq); exact != want {
				t.Errorf("edge %d d=%d: Hyperbola=%v Exact=%v\nsa=%v\nsb=%v\nsq=%v", i, d, want, exact, sa, sb, sq)
			}
			if w := FindWitness(sa, sb, sq, 256, rng); want && w != nil {
				t.Errorf("edge %d d=%d: dominated, but %v is a witness (margin %g)\nsa=%v\nsb=%v\nsq=%v", i, d, w.Q, w.Margin, sa, sb, sq)
			}
		}
	}
}

// TestAcceptBoundFires keeps the edge table honest: the bisection must find
// an edge on the geometries built for it, and beyond the focal accept's own
// — otherwise the table stopped testing the bound it is named after.
func TestAcceptBoundFires(t *testing.T) {
	g := triple{0, 0, 0, 1, 20, 0, 0, 1, -30, 2, 0, 10}
	edge, ok := coarseAcceptEdge(g, 3)
	if !ok {
		t.Fatal("no coarse accept fires on the generic geometry")
	}
	sa, sb, sq := g.spheres(3)
	focal := (geom.MinDist(geom.Point(sq.Center), geom.Point(sb.Center)) - geom.MinDist(geom.Point(sq.Center), geom.Point(sa.Center)) - sa.Radius - sb.Radius) / 2
	if !(edge > 1.5*focal) {
		t.Errorf("accept edge at r = %v, focal accept alone reaches %v", edge, focal)
	}
	sq.Radius = edge
	if dmin := Dmin(sa, sb, sq); !(dmin > edge) {
		t.Errorf("accept fires at r = %v but dmin = %v", edge, dmin)
	}
}

// TestAcceptBoundRandomEdges takes the edge search off the hand-made table:
// random pairs from point-like to almost tangent, queries from deep behind ca
// to between the foci and from deep inside Ra to a few ulp off its boundary,
// near-collinear to perpendicular, at scales 1e-3..1e6 and up to 1e8 scales
// away from the origin (so the squared distances cancel) — each probed within
// ±2 ulp of the radius where the kernel's accepts stop firing. The three forms
// must agree there, and the reference's own dmin must still clear the radius:
// the accept may never be the only thing standing between a triple and a
// "not dominated".
func TestAcceptBoundRandomEdges(t *testing.T) {
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	rng := rand.New(rand.NewSource(12345))
	logU := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	unit := func() (u [3]float64) {
		for n := 0.0; n < 1e-3; n = math.Sqrt(u[0]*u[0] + u[1]*u[1] + u[2]*u[2]) {
			u = [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		n := math.Sqrt(u[0]*u[0] + u[1]*u[1] + u[2]*u[2])
		return [3]float64{u[0] / n, u[1] / n, u[2] / n}
	}
	var an Anchored
	edges := 0
	for trial := 0; trial < trials; trial++ {
		scale := logU(1e-3, 1e6)
		origin := 0.0
		if trial%2 == 0 {
			origin = scale * logU(1, 1e8)
		}
		dcc, da := scale*logU(1e-3, 1e3), scale*logU(1e-4, 1e4)
		axis, side := unit(), unit()
		var angle float64 // ∠(cb, ca, cq): π puts cq straight behind ca
		switch trial % 4 {
		case 0:
			angle = math.Pi - logU(1e-12, 1)
		case 1:
			angle = logU(1e-12, 1)
		default:
			angle = rng.Float64() * math.Pi
		}
		var g triple
		for i := 0; i < 3; i++ {
			g[i] = origin
			g[4+i] = origin + dcc*axis[i]
			g[8+i] = origin + da*(math.Cos(angle)*axis[i]+math.Sin(angle)*side[i])
		}
		rab := dcc * rng.Float64()
		switch trial % 5 {
		case 0:
			rab = 0
		case 1: // Sa and Sb almost tangent
			rab = dcc * (1 - logU(1e-9, 1))
		case 2, 3: // cq almost on the boundary: the bound is first-order exact, so only its margins decide
			sa, sb, sq := g.spheres(3)
			gap := geom.MaxDist(geom.Point(sq.Center), geom.Point(sb.Center)) - geom.MaxDist(geom.Point(sq.Center), geom.Point(sa.Center))
			rab = gap * (1 - logU(1e-14, 1e-2))
		}
		g[3] = rab * rng.Float64()
		g[7] = rab - g[3]
		for _, d := range []int{3, 1} {
			edge, ok := coarseAcceptEdge(g, d)
			if !ok {
				continue
			}
			edges++
			for _, r := range []float64{
				math.Nextafter(math.Nextafter(edge, 0), 0), math.Nextafter(edge, 0), edge,
				math.Nextafter(edge, math.Inf(1)), math.Nextafter(math.Nextafter(edge, math.Inf(1)), math.Inf(1)),
			} {
				e := g
				e[11] = r
				sa, sb, sq := e.spheres(d)
				pp := PreparePair(sa, sb)
				an.Reset(Hyperbola{}, sa, sq)
				prep, anch, want := pp.Dominates(sq), an.Dominates(sb), Hyperbola{}.Dominates(sa, sb, sq)
				if prep != want || anch != want {
					t.Fatalf("trial %d d=%d: PreparedPair=%v Anchored=%v Hyperbola=%v\nsa=%v\nsb=%v\nsq=%v", trial, d, prep, anch, want, sa, sb, sq)
				}
				if r <= edge && !(HyperbolaDmin(sa, sb, sq) > r) {
					t.Fatalf("trial %d d=%d: an accept fires at r = %v, the closed form's dmin is %v\nsa=%v\nsb=%v\nsq=%v", trial, d, r, HyperbolaDmin(sa, sb, sq), sa, sb, sq)
				}
			}
		}
	}
	if edges < trials/2 {
		t.Errorf("only %d accept edges found in %d trials: the generator stopped reaching the bound", edges, trials)
	}
}
