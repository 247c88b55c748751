package dominance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
	"hyperdom/internal/vec"
)

// certNominal is the nominal margin the certificate tests hold the full
// path to, relative to the frame scale |p1| + p2 + α + r: the same 1e-12
// the O(1) accepts leave over the float64 rounding. certify's own margin m
// is certRel = 1e-9 of the scale, so at its edges the reference's dmin sits
// at least a thousand nominal margins from r; with m = 0 it sits within
// rounding of r.
const certNominal = 1e-12

// certFrame returns the pair and the canonical coordinates of cq exactly as
// PreparedPair.Dominates and verdict compute them.
func certFrame(sa, sb, sq geom.Sphere) (p PreparedPair, p1, p2 float64) {
	p = PreparePair(sa, sb)
	da2, db2 := vec.Dist2(sq.Center, sa.Center), vec.Dist2(sq.Center, sb.Center)
	p1 = (da2 - db2) / p.twoDcc
	p22 := da2 - (p1+p.alpha)*(p1+p.alpha)
	if p22 < 0 {
		p22 = 0
	}
	return p, p1, math.Sqrt(p22)
}

// certEdge bisects the query radius down to adjacent floats at which
// certify stops settling (p1, p2) with the given verdict and returns the
// last radius at which it still does: the largest for the chord accept
// (it fires on thin disks), the smallest for the witness reject (it fires
// on fat ones). ok is false when the certificate never fires between a
// point-like disk and one twice the horizontal gap to the branch.
func certEdge(p *PreparedPair, p1, p2 float64, accept bool) (r float64, ok bool) {
	fires := func(r float64) bool {
		v, ok := p.certify(p1, p2, r)
		return ok && v == accept
	}
	g := -p.hA*math.Sqrt(1+p2*p2/p.b2) - p1
	if !(g > 0) || math.IsInf(g, 0) {
		return 0, false
	}
	in, out := 1e-9*g, 2*g // the certificate fires at in and not at out
	if !accept {
		in, out = out, 0
	}
	if !fires(in) || fires(out) {
		return 0, false
	}
	for {
		mid := in + (out-in)/2
		if mid == in || mid == out {
			return in, true
		}
		if fires(mid) {
			in = mid
		} else {
			out = mid
		}
	}
}

// TestCertificateEdges holds the certificate to the reference where it is
// weakest: at the last float at which each of its two tests still fires.
// Random pairs from point-like to almost tangent, queries near the vertex
// (where the branch curves hardest) and far along the asymptote, at scales
// 1e-3..1e6 and up to 1e8 scales away from the origin (so the squared
// distances cancel) — each probed within ±2 ulp of both edges. There the
// unchanged quartic path must return the certified verdict with its dmin on
// the same side of r by at least 8 nominal margins, and the three Hyperbola
// forms must agree. A disagreement is a bug for the Exact oracle and the
// Monte-Carlo falsifier to settle, not a reason to widen certRel.
func TestCertificateEdges(t *testing.T) {
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	rng := rand.New(rand.NewSource(4417))
	logU := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	unit := func() (u [3]float64) {
		for n := 0.0; n < 1e-3; n = math.Sqrt(u[0]*u[0] + u[1]*u[1] + u[2]*u[2]) {
			u = [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		n := math.Sqrt(u[0]*u[0] + u[1]*u[1] + u[2]*u[2])
		return [3]float64{u[0] / n, u[1] / n, u[2] / n}
	}
	var an Anchored
	edges := [2]int{}
	for trial := 0; trial < trials; trial++ {
		scale := logU(1e-3, 1e6)
		origin := 0.0
		if trial%2 == 0 {
			origin = scale * logU(1, 1e8)
		}
		alpha := scale * logU(1e-2, 1e2)
		var hA float64
		switch trial % 3 {
		case 0: // Sa and Sb almost tangent: Ra is a thin cone, the vertex sharp
			hA = alpha * (1 - logU(1e-9, 1e-1))
		case 1: // almost point-like: Ra is almost a half-space
			hA = alpha * logU(1e-6, 1e-1)
		default:
			hA = alpha * rng.Float64()
		}
		b := math.Sqrt((alpha - hA) * (alpha + hA))
		var p2 float64
		switch trial % 4 {
		case 0, 1: // near the vertex, inside the vertex's circle of curvature
			p2 = b * logU(1e-6, 1)
		case 2: // far along the asymptote
			p2 = b * logU(1e1, 1e6)
		default:
			p2 = b * logU(1e-3, 1e3)
		}
		x := -hA * math.Sqrt(1+p2*p2/(b*b))
		gap := logU(1e-6, 1)
		if trial%4 < 2 {
			gap *= b * b / math.Max(hA, 1e-300) // the vertex's radius of curvature
		} else {
			gap *= alpha + p2
		}
		axis, side := unit(), unit()
		for i := range side { // side ⟂ axis
			side[i] -= (side[0]*axis[0] + side[1]*axis[1] + side[2]*axis[2]) * axis[i]
		}
		sn := math.Sqrt(side[0]*side[0] + side[1]*side[1] + side[2]*side[2])
		var g triple
		for i := 0; i < 3; i++ {
			g[i] = origin - alpha*axis[i]
			g[4+i] = origin + alpha*axis[i]
			g[8+i] = origin + (x-gap)*axis[i] + p2*side[i]/sn
		}
		g[3] = 2 * hA * rng.Float64()
		g[7] = 2*hA - g[3]
		sa, sb, sq := g.spheres(3)
		if geom.Overlap(sa, sb) {
			continue
		}
		pp, p1, pq2 := certFrame(sa, sb, sq)
		if pp.rab == 0 {
			continue
		}
		for k, accept := range []bool{true, false} {
			edge, ok := certEdge(&pp, p1, pq2, accept)
			if !ok {
				continue
			}
			edges[k]++
			for _, r := range []float64{
				math.Nextafter(math.Nextafter(edge, 0), 0), math.Nextafter(edge, 0), edge,
				math.Nextafter(edge, math.Inf(1)), math.Nextafter(math.Nextafter(edge, math.Inf(1)), math.Inf(1)),
			} {
				sq.Radius = r
				an.Reset(Hyperbola{}, sa, sq)
				prep, anch, want := pp.Dominates(sq), an.Dominates(sb), Hyperbola{}.Dominates(sa, sb, sq)
				if prep != want || anch != want {
					t.Fatalf("trial %d: PreparedPair=%v Anchored=%v Hyperbola=%v\nsa=%v\nsb=%v\nsq=%v", trial, prep, anch, want, sa, sb, sq)
				}
				v, ok := pp.certify(p1, pq2, r)
				if !ok {
					continue
				}
				dmin := hyperbolaDmin(reduced{alpha: pp.alpha, rab: pp.rab, p1: p1, p2: pq2})
				clear := dmin - r
				if !v {
					clear = r - dmin
				}
				if nominal := certNominal * (math.Abs(p1) + pq2 + pp.alpha + r); !(clear >= 8*nominal) {
					t.Fatalf("trial %d: certified %v at r = %v, the quartic path's dmin = %v (%.3g nominal margins on the certified side; Exact dmin %v)\nsa=%v\nsb=%v\nsq=%v",
						trial, v, r, dmin, clear/nominal, Dmin(sa, sb, sq), sa, sb, sq)
				}
			}
		}
	}
	for k, name := range []string{"chord accept", "witness reject"} {
		if edges[k] < trials/4 {
			t.Errorf("only %d %s edges found in %d trials: the generator stopped reaching the certificate", edges[k], name, trials)
		}
	}
}

// benchCertFrames are canonical frames (A, B², p1, p2, r) that reached the
// certificate stage on the four benchmark corpora (seed 1, 400 member
// queries, k = 10): per workload, those nearest to r of each outcome — the
// chord accept, the witness reject and, where there were any, checks the
// certificate left to the quartic.
var benchCertFrames = [][5]float64{
	// fat_d10
	{9.492003240071337, 3548.171756681194, -17.302980727144917, 21.98295547263971, 7.165737855697691},
	{5.1228505400382955, 3468.087986586729, -15.206077018680888, 34.964736223772626, 9.223760071434816},
	{6.024202771689719, 1512.4726290949377, -18.61305524846824, 51.69960552424366, 8.591828552487247},
	{10.297957551154532, 3005.489519107127, -25.028413333157967, 43.247885206680266, 11.911820209741046},
	{2.3827943048414193, 2944.2672120919024, -12.110990789857874, 37.004005602524686, 9.223760071434816},
	{5.360295548642316, 3175.2982359481, -15.728065579704984, 38.46406422876813, 9.223760071434816},
	// mixed_snap
	{1.7143277943940172, 953.9469097012446, -3.592730949284928, 17.814622664598044, 1.6123149747422865},
	{1.3092385332412166, 333.01386170653063, -3.520495661136319, 20.66194397648811, 1.5401761957434021},
	{1.8669529826363513, 475.89093518351257, -5.025094929532799, 34.58804891513412, 1.5255013394696668},
	{2.897275837495936, 317.3304474930999, -5.707780084821988, 8.612032547344587, 2.489788526631847},
	{2.5125551216272894, 235.97837537788115, -4.982714438551476, 10.205283514011924, 1.9578345162253041},
	{2.495567635884812, 149.80113864607412, -6.485877120746027, 12.681423470260519, 2.8611149787584718},
	// scan_d10
	{1.177747030531532, 873.6868842152961, -3.202934908940243, 35.52356586091136, 1.3594111627362246},
	{0.847816776687506, 317.79045720981253, -2.6244263203452767, 23.83816980871415, 1.2068097671367122},
	{0.8521642655916719, 442.736484007624, -2.245831071206573, 27.75939309559735, 0.8347132313335448},
	{1.0171362965620783, 156.3119253544507, -2.7980129374959755, 25.483530875895713, 0.4883121501868323},
	// thin_d4
	{0.20927828746879243, 31.93348637037478, -0.454408615709994, 3.449515937860061, 0.20869429397342007},
	{0.24918167751301695, 29.455182830786317, -0.41478138044622026, 1.3060320655891255, 0.1575050343897307},
	{0.23995385756676174, 10.711265069808844, -0.5514913128827554, 3.453050468991754, 0.20258915881931833},
	{0.23915169160089864, 13.18216281458636, -0.6414242986865524, 5.370529208463569, 0.2151727680820282},
}

// canonicalPair is the pair whose canonical frame has semi-axes A and
// B² = α² − A², built through frame() like any other pair.
func canonicalPair(hA, b2 float64) PreparedPair {
	var p PreparedPair
	p.frame(2, 4*(hA*hA+b2), 2*hA)
	return p
}

// certStageTriples turns benchCertFrames into 3-D sphere triples on the
// focal axis, FuzzPreparedPairAgree's seed shape.
func certStageTriples() []triple {
	var out []triple
	for _, f := range benchCertFrames {
		alpha := math.Sqrt(f[0]*f[0] + f[1])
		out = append(out, triple{-alpha, 0, 0, f[0], alpha, 0, 0, f[0], f[2], f[3], 0, f[4]})
	}
	return out
}

// TestCertificateSettlesBenchFrames keeps benchCertFrames honest: replayed
// through the kernel's own frame, the frames still reach the certificate and
// include both of its verdicts, so the fuzz seeds built from them test it.
func TestCertificateSettlesBenchFrames(t *testing.T) {
	defer obs.SetEnabled(obs.On())
	obs.SetEnabled(true)
	var outcome [3]int // accept, reject, quartic
	for _, e := range certStageTriples() {
		sa, sb, sq := e.spheres(3)
		pp := PreparePair(sa, sb)
		if pp.Dominates(sq) != (Hyperbola{}).Dominates(sa, sb, sq) {
			t.Fatalf("kernel and reference disagree\nsa=%v\nsb=%v\nsq=%v", sa, sb, sq)
		}
		switch {
		case pp.tally.quartics == 1:
			outcome[2]++
		case pp.tally.coarseAccepts == 1:
			outcome[0]++
		case pp.tally.coarseRejects == 1:
			outcome[1]++
		}
	}
	if outcome[0] == 0 || outcome[1] == 0 || outcome[2] == 0 {
		t.Errorf("accepts, rejects, quartic solves = %v: every outcome of the certificate stage should be seeded", outcome)
	}
}

// FuzzCertificateVsQuartic feeds canonical frames (A, B², p1, p2, r) that
// reach the certificate stage — cq inside Ra and every closed-form
// candidate clearing r — to certify and to the unchanged quartic path
// (hyperbolaDmin on the same frame): whenever the certificate settles a
// verdict it must be the quartic path's, and dminBeats, which runs it, must
// agree with the quartic path on every input. Seeded with quartic-stage
// checks from the four benchmark corpora.
func FuzzCertificateVsQuartic(f *testing.F) {
	for _, fr := range benchCertFrames {
		f.Add(fr[0], fr[1], fr[2], fr[3], fr[4])
	}
	f.Fuzz(func(t *testing.T, hA, b2, p1, p2, r float64) {
		for _, v := range []float64{hA, b2, p1, p2, r} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if !(hA > 0 && b2 > 0 && p2 >= 0 && r > 0) {
			t.Skip()
		}
		p := canonicalPair(hA, b2)
		if p.overlap || p.rab == 0 || !(p.b2 > 0) {
			t.Skip()
		}
		if !(-p.hA*math.Sqrt(1+p2*p2/p.b2) > p1) {
			t.Skip() // cq not inside Ra: verdict settles it before the quartic
		}
		if !(math.Hypot(p1+p.hA, p2) > r) {
			t.Skip() // the vertex candidate settles it before certify runs
		}
		dmin := hyperbolaDmin(reduced{alpha: p.alpha, rab: p.rab, p1: p1, p2: p2})
		want := dmin > r
		if v, ok := p.certify(p1, p2, r); ok && v != want {
			t.Fatalf("certified %v, quartic path dmin = %v against r = %v (Exact dmin %v)\nA=%v B²=%v α=%v p1=%v p2=%v",
				v, dmin, r, exactDmin(reduced{alpha: p.alpha, rab: p.rab, p1: p1, p2: p2}), p.hA, p.b2, p.alpha, p1, p2)
		}
		if got := p.dminBeats(p1, p2, r); got != want {
			t.Fatalf("dminBeats = %v, quartic path dmin = %v against r = %v\nA=%v B²=%v α=%v p1=%v p2=%v", got, dmin, r, p.hA, p.b2, p.alpha, p1, p2)
		}
	})
}

// vertexMiss is a thin query next to the vertex of an almost tangent pair,
// with cq 3e-10 off the focal axis: dmin ≈ 9.2e-11 < r. An earlier
// closed-form quartic solver dropped the minimiser's root here, and the
// reference's minimum was the vertex's 3.4e-10 — a "dominated" that a
// Monte-Carlo witness refutes. TestCertificateEdges found it at its first
// reject edges.
var vertexMiss = triple{
	-0.003578716718816921, -0.0002479182944773779, -0.002375279388191663, 0.0026669880205659837,
	0.003578716718816921, 0.0002479182944773779, 0.002375279388191663, 0.005925605186947659,
	-0.0035736414666294562, -0.00024756662419082295, -0.0023719111982606995, 1.0058157135195412e-10,
}

// tangencyTriple is an almost tangent pair (A/α = 0.999957) with cq near the
// vertex (p2/B = 0.0057) and no query radius: the branch point at
// y ≈ 8.17e-9 is 5.0993e-9 from cq. Eq. (14) for it is the quartic
// TestQuartic's "tangency pair" case holds, whose second root, the
// minimiser's, the closed-form solver dropped; the reference's dmin was then
// 5.1604e-9, and query radii between the two were called dominated.
var tangencyTriple = triple{
	-3.496551604102177e-07, 1.7250349495400196e-05, 7.900766996538488e-05, 7.187540365711309e-05,
	3.496551604102177e-07, -1.7250349495400196e-05, -7.900766996538488e-05, 8.985704527468684e-05,
	-3.53652225622905e-07, 1.7252870866150884e-05, 7.901182599491956e-05, 0,
}

// TestTangencyVerdictsAgreeWithWitness: on triples where the quartic's
// roots once missed the minimiser, the reference, the kernel and the numeric
// oracle all say "not dominated", and the falsifier has the witness to show
// it.
func TestTangencyVerdictsAgreeWithWitness(t *testing.T) {
	cases := map[string]triple{"vertexMiss": vertexMiss}
	for _, rq := range []float64{5.10e-9, 5.12e-9, 5.14e-9, 5.16e-9} {
		e := tangencyTriple
		e[11] = rq
		cases[fmt.Sprintf("tangency/rq=%g", rq)] = e
	}
	for name, e := range cases {
		t.Run(name, func(t *testing.T) {
			sa, sb, sq := e.spheres(3)
			if (Hyperbola{}).Dominates(sa, sb, sq) {
				t.Errorf("Hyperbola: dominated, dmin = %v against r = %v (Exact dmin %v)", HyperbolaDmin(sa, sb, sq), sq.Radius, Dmin(sa, sb, sq))
			}
			if pp := PreparePair(sa, sb); pp.Dominates(sq) {
				t.Error("PreparedPair: dominated")
			}
			if (Exact{}).Dominates(sa, sb, sq) {
				t.Error("Exact: dominated")
			}
			if FindWitness(sa, sb, sq, 1<<16, rand.New(rand.NewSource(1))) == nil {
				t.Error("no Monte-Carlo witness against dominance")
			}
		})
	}
}
