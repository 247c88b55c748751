package dominance

import (
	"math"

	"hyperdom/internal/geom"
	"hyperdom/internal/poly"
)

// PreparedPair is the pair-amortized form of the Hyperbola criterion: every
// quantity of the canonical-frame reduction (Section 4.3.1) that depends only
// on (Sa, Sb) — the overlap verdict, the half focal distance α, rab = ra+rb,
// the semi-axes A = rab/2 and B² = α² − A² — is computed once by
// PreparePair; the α-normalised prefactors of the Eq. (14) quartic follow
// from them on the rare check that reaches the quartic. Dominates then
// needs only the two query-dependent dot products da² = Dist²(cq,ca) and
// db² = Dist²(cq,cb), the MDD inside test, and (when Sq is fat and cq is
// inside Ra) the closed-form candidates, the chord and witness certificates
// and, for what those leave undecided, the quartic.
//
// Verdicts are bit-identical to Hyperbola{}.Dominates(sa, sb, sq): the
// per-query arithmetic mirrors reduce/hyperbolaDmin expression by
// expression, with precomputed scalars substituted only where Go's
// left-to-right association makes the substitution exact (see
// TestPreparedPairMatchesHyperbola and FuzzPreparedPairAgree).
//
// A PreparedPair retains references to the centers of Sa and Sb; the caller
// must not mutate them while the pair is in use. The zero value is not
// meaningful; construct with PreparePair or (re)initialise with Reset.
// Dominates performs no heap allocation, and a PreparedPair value may be
// reused across pairs via Reset, so hot loops can keep one in scratch space.
// It is safe for concurrent use only after initialisation (Reset is a
// write).
type PreparedPair struct {
	ca, cb []float64 // centers of Sa and Sb (referenced, not copied)
	dim    int
	rab    float64 // ra + rb

	overlap bool // Sa and Sb overlap: Dominates is constantly false (Lemma 1)
	line    bool // 1-dimensional ambient space

	// Canonical frame (valid when !overlap).
	alpha  float64 // Dist(ca,cb)/2
	twoDcc float64 // 2·Dist(ca,cb), the p1 divisor of reduce
	hA     float64 // A = rab/2

	// Hyperbola frame (valid when !overlap && rab > 0 && !line).
	b2     float64 // B² = (α−A)(α+A)
	hA2    float64 // A²
	alpha2 float64 // α²

	// Observability (see metrics.go): tally accumulates events locally and
	// survives Reset.
	tally pairTally
}

// PreparePair factors the (Sa, Sb)-only part of the Hyperbola criterion in
// O(d) time. It panics if the spheres mix dimensionalities.
func PreparePair(sa, sb geom.Sphere) PreparedPair {
	var p PreparedPair
	p.Reset(sa, sb)
	return p
}

// Reset re-initialises p for a new (Sa, Sb) pair in place, without
// allocating. It is the hot-loop form of PreparePair.
func (p *PreparedPair) Reset(sa, sb geom.Sphere) {
	d := sa.Dim()
	if sb.Dim() != d {
		panic("dominance: spheres with mixed dimensionality")
	}
	ca, cb := sa.Center, sb.Center
	var dcc2 float64
	for i := 0; i < d; i++ {
		e := cb[i] - ca[i]
		dcc2 += e * e
	}
	p.ca, p.cb = ca, cb
	p.frame(d, dcc2, sa.Radius+sb.Radius)
}

// frame is the scalar part of Reset: everything the pair contributes once
// dcc² = Dist²(ca,cb) and rab are known. Anchored shares it.
func (p *PreparedPair) frame(d int, dcc2, rab float64) {
	// Field-by-field reinitialisation: a `*p = PreparedPair{...}` literal
	// zero-fills and copies the whole struct (runtime.duffcopy) on every
	// Reset, once per candidate of the kNN final filter. Every field below
	// is either assigned on this path or only read on branches that
	// assigned it first (the hyperbola block is read only when frame's tail
	// ran for this pair), so skipping the zero-fill changes nothing.
	p.dim = d
	p.rab = rab
	if dcc2 <= rab*rab {
		p.overlap = true
		p.line = false
		return
	}
	p.overlap = false
	dcc := math.Sqrt(dcc2)
	p.alpha = dcc / 2
	p.twoDcc = 2 * dcc
	p.hA = rab / 2
	p.line = d == 1
	if rab == 0 || p.line {
		return // degenerate dmin cases need no quartic machinery
	}
	p.b2 = (p.alpha - p.hA) * (p.alpha + p.hA)
	p.hA2 = p.hA * p.hA
	p.alpha2 = p.alpha * p.alpha
}

// QuarticSolves returns the pair's locally tallied quartic-solve count
// since its last obs flush. A caller reading it before and after a check to
// attribute solves to that check gets a meaningful difference only across a
// window with no intervening flush (windows of up to obsFlushEvery tallied
// events), so it must treat a decrease as zero.
func (p *PreparedPair) QuarticSolves() uint64 { return p.tally.quartics }

// Dominates reports whether Sa dominates Sb with respect to sq, with a
// verdict bit-identical to Hyperbola{}.Dominates(sa, sb, sq). Cost per call:
// one pass over cq accumulating da² and db², two square roots, and — only
// when cq lies inside Ra and Sq has positive radius — an O(1) bound,
// certificates and, rarely, the quartic of Eq. (14). It panics
// if sq's dimensionality differs from the pair's.
func (p *PreparedPair) Dominates(sq geom.Sphere) bool {
	if sq.Dim() != p.dim {
		panic("dominance: spheres with mixed dimensionality")
	}
	var da2, db2 float64
	if !p.overlap {
		ca, cb, cq := p.ca, p.cb, sq.Center
		for i := 0; i < p.dim; i++ {
			ea := cq[i] - ca[i]
			da2 += ea * ea
			eb := cq[i] - cb[i]
			db2 += eb * eb
		}
	}
	return p.verdict(da2, db2, sq.Radius)
}

// verdict is the scalar tail of Dominates: the decision for a query of
// radius r at squared distances da², db² from the centers of Sa and Sb
// (ignored when the pair overlaps). Anchored.Dominates shares it. The
// stages run in the order of DESIGN.md §7; each one that settles a check is
// either exact (the overlap, MDD and point-query exits mirror Hyperbola's
// own) or leaves a margin over the full path's rounding.
func (p *PreparedPair) verdict(da2, db2, r float64) bool {
	if p.overlap {
		p.count(&p.tally.overlaps)
		return false
	}
	da := math.Sqrt(da2)
	db := math.Sqrt(db2)
	if !(db-da > p.rab) { // cq not strictly inside Ra: MDD violated
		return false
	}
	if r == 0 { // cq strictly inside Ra and Sq = {cq}
		return true
	}
	// Local-Lipschitz accept (lipschitzAccept).
	if h := da - r - 1e-12*da; h > 0 && lipschitzAccept(da, db, p.twoDcc, p.rab, r, r*r/(2*h)) {
		p.count(&p.tally.coarseAccepts)
		return true
	}
	return p.settle(da2, db2, r)
}

// lipschitzAccept is stage 4, the local-Lipschitz accept (the
// derivation in DESIGN.md §7), for a pair at 2·Dist(ca,cb) = twoDcc with
// rab = ra+rb, a query of radius r at focal distances da, db, and
// curv = r²/(2h), h = da − r − 1e-12·da > 0, the curvature term, which
// depends on the query and Sa alone. verdict and Anchored.DominatesBlock
// share it, so both decide with the same float64s. The boundary of Ra is the level
// set f = rab of f(X) = |X−cb| − |X−ca|, which the triangle inequality
// through each focus makes 2-Lipschitz; at cq the local constant is
// L = |v̂b − v̂a|, the unit vectors from ca and cb to cq, with
// L² = (dcc² − (db−da)²)/(da·db) by the law of cosines. Projecting X−cb on
// v̂b, and bounding |X−ca| by √(a²+b²) ≤ a + b²/2a for da > r,
//
//	min over Sq of f ≥ (db−da) − r·L − r²/(2(da−r)),
//
// and when that exceeds rab every point of Sq is strictly inside Ra
// (Lemma 7). The full path decides the same question for a planar point
// whose focal distances are da, db, dcc to a few ulp, and its dmin, a
// minimum over on-curve points, can only sit above the true one. The
// rounding of the square roots is relative to the focal distances, not
// to their difference, so every margin scales with db+da; each 1e-12
// (three orders over that ~1e-15 noise) leans towards "undecided": g is
// capped at dcc (the triangle inequality, which rounding can break by an
// ulp), L² is padded where dcc² − g² cancels, da is shaved (in h) where
// da − r does, and f being 2-Lipschitz the last margin leaves
// dmin ≥ r + 1e-12·(db+da). Dimension-free, so valid on the line and for
// rab = 0; NaN or Inf operands compare false.
func lipschitzAccept(da, db, twoDcc, rab, r, curv float64) bool {
	dcc := 0.5 * twoDcc
	g := min(db-da, dcc)
	sum := db + da
	l2 := ((dcc-g)*(dcc+g) + 1e-12*dcc*sum) / (da * db)
	return g-rab-r*math.Sqrt(l2)-curv > 2e-12*sum
}

// settle is verdict past its O(1) exits (stages 5–9 of DESIGN.md §7): the
// pair is framed, cq lies strictly inside Ra and Sq is fat. It decides
// from the canonical coordinates of cq.
func (p *PreparedPair) settle(da2, db2, r float64) bool {
	// Canonical coordinates of cq, exactly as reduce computes them.
	p1 := (da2 - db2) / p.twoDcc
	p22 := da2 - (p1+p.alpha)*(p1+p.alpha)
	if p22 < 0 {
		p22 = 0
	}
	p2 := math.Sqrt(p22)
	if p.line || p.rab == 0 {
		return p.dmin(p1) > r
	}
	return p.dminBeats(p1, p2, r)
}

// dmin is hyperbolaDmin on its two closed-form frames: a 1-dimensional
// ambient space (p.line; the boundary is the point x = −hA) and rab = 0 (the
// bisector hyperplane x = 0). Every other frame goes through dminBeats.
func (p *PreparedPair) dmin(p1 float64) float64 {
	if p.line {
		return math.Abs(p1 + p.hA)
	}
	return math.Abs(p1)
}

// dminBeats reports hyperbolaDmin > r on a general (hyperbola) frame without
// always paying for the quartic. It mirrors hyperbolaDmin's candidate
// sequence with the (Sa, Sb)-only scalars precomputed, every expression
// keeping the association of the original so each candidate is the same
// float64. The minimum only shrinks along the sequence, so the moment a
// running prefix of it fails to clear r the final value fails too and the
// verdict is settled false. A NaN prefix settles false exactly as
// hyperbolaDmin's NaN would: on a degenerate frame (b2 = 0) the vertex
// candidate's 0/b2 term is NaN, so that distance, and then the minimum, is NaN.
// Checks that still clear r after the closed-form candidates go to the
// chord and witness certificates (certify), which need every one of them
// to clear r; only what certify leaves undecided reaches the quartic, which
// is what keeps the quartic_solves counter an honest count of solves
// actually performed.
func (p *PreparedPair) dminBeats(p1, p2, r float64) bool {
	hA, b2 := p.hA, p.b2

	x0 := -hA * math.Sqrt(1+0/b2) // distToY(0), the vertex
	dmin := math.Hypot(p1-x0, p2)

	if y := p2 * b2 / p.alpha2; y != 0 {
		x := -hA * math.Sqrt(1+y*y/b2)
		if dd := math.Hypot(p1-x, p2-y); dd < dmin {
			dmin = dd
		}
	}
	if !(dmin > r) {
		return false
	}

	if x := p1 * hA * hA / p.alpha2; x < 0 {
		if y2 := b2 * (x*x/p.hA2 - 1); y2 > 0 {
			y := math.Sqrt(y2)
			xx := -hA * math.Sqrt(1+y*y/b2)
			if dd := math.Hypot(p1-xx, p2-y); dd < dmin {
				dmin = dd
			}
		}
	}
	if !(dmin > r) {
		return false
	}

	if v, ok := p.certify(p1, p2, r); ok {
		if v {
			p.count(&p.tally.coarseAccepts)
		} else {
			p.count(&p.tally.coarseRejects)
		}
		return v
	}

	p.count(&p.tally.quartics)
	// The α-normalised prefactors of Eq. (14), formed here rather than in
	// frame: about one check in 1,500 gets this far, and their three
	// divisions would otherwise be paid by every framed one.
	hatA2 := (hA / p.alpha) * (hA / p.alpha)
	hatB2 := b2 / (p.alpha * p.alpha)
	c3 := -2 * hatB2
	c1 := c3 * hatB2
	c0 := hatB2 * hatB2 * hatB2
	P1 := p1 / p.alpha
	P2 := p2 / p.alpha
	q3 := c3 * P2
	q2 := hatB2 * (1 + hatB2*P2*P2 - hatA2*P1*P1)
	q1 := c1 * P2
	q0 := c0 * P2 * P2

	roots, n := poly.Quartic4(1.0, q3, q2, q1, q0)
	return min(dmin, rootsDist(hA, b2, p.alpha, p1, p2, roots[:n])) > r
}
