package dominance

import (
	"math"
	"time"

	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
	"hyperdom/internal/poly"
)

// PreparedPair is the pair-amortized form of the Hyperbola criterion: every
// quantity of the canonical-frame reduction (Section 4.3.1) that depends only
// on (Sa, Sb) — the overlap verdict, the half focal distance α, rab = ra+rb,
// the semi-axes A = rab/2 and B² = α² − A², and the α-normalised prefactors
// of the Eq. (14) quartic — is computed once by PreparePair. Dominates then
// needs only the two query-dependent dot products da² = Dist²(cq,ca) and
// db² = Dist²(cq,cb), the MDD inside test, and (when Sq is fat and cq is
// inside Ra) the closed-form quartic.
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

	// Quartic precomputation (valid when !overlap && rab > 0 && !line).
	b2     float64 // B² = (α−A)(α+A)
	hA2    float64 // A²
	alpha2 float64 // α²
	hatA2  float64 // (A/α)²
	hatB2  float64 // B²/α²
	c3     float64 // −2·hatB2          (q3 = c3·P2)
	c1     float64 // −2·hatB2·hatB2    (q1 = c1·P2)
	c0     float64 // hatB2³            (q0 = c0·P2·P2)

	// Observability (see metrics.go). obsOn caches the obs gate at Reset
	// time so the per-query check is a plain byte load; tally accumulates
	// events locally and survives Reset; fresh marks that no query has run
	// since the last Reset (for reuse-hit accounting).
	obsOn bool
	fresh bool
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
// dcc² = Dist²(ca,cb) and rab are known. Anchored.Dominates shares it.
func (p *PreparedPair) frame(d int, dcc2, rab float64) {
	// Field-by-field reinitialisation: a `*p = PreparedPair{...}` literal
	// zero-fills and copies the whole struct (runtime.duffcopy) on every
	// Reset, once per candidate of the kNN final filter. Every field below
	// is either assigned on this path or only read on branches that
	// assigned it first (the quartic block is read only when frame's tail
	// ran for this pair), so skipping the zero-fill changes nothing.
	p.dim = d
	p.rab = rab
	p.obsOn = obs.On()
	p.fresh = true
	if p.obsOn {
		p.tally.resets++
	}
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
	p.hatA2 = (p.hA / p.alpha) * (p.hA / p.alpha)
	p.hatB2 = p.b2 / (p.alpha * p.alpha)
	p.c3 = -2 * p.hatB2
	p.c1 = p.c3 * p.hatB2
	p.c0 = p.hatB2 * p.hatB2 * p.hatB2
}

// Overlaps reports whether Sa and Sb overlap, in which case Dominates is
// constantly false and callers can skip the per-query work entirely.
func (p *PreparedPair) Overlaps() bool { return p.overlap }

// QuarticSolves returns the pair's locally tallied quartic-solve count
// since its last obs flush. Execution tracing reads it before and after a
// check to attribute solves to individual spans; the difference is only
// meaningful across a window with no intervening flush (windows of up to
// obsFlushEvery queries), so callers must treat a decrease as zero.
func (p *PreparedPair) QuarticSolves() uint64 { return p.tally.quartics }

// DominatesBatch evaluates the pair's verdict for every query sphere,
// writing out[i] = p.Dominates(qs[i]). Verdicts are bit-identical to the
// one-at-a-time path; the whole sweep is timed with a single clock-read
// pair into the dominance.prepared_batch_latency histogram, so batch
// callers get latency observability without perturbing the per-query
// kernel. It panics if the slice lengths differ.
func (p *PreparedPair) DominatesBatch(qs []geom.Sphere, out []bool) {
	if len(qs) != len(out) {
		panic("dominance: DominatesBatch with mismatched slice lengths")
	}
	var start time.Time
	if p.obsOn {
		start = time.Now()
	}
	for i := range qs {
		out[i] = p.Dominates(qs[i])
	}
	if p.obsOn {
		histPreparedBatch.RecordDuration(time.Since(start))
	}
}

// Dominates reports whether Sa dominates Sb with respect to sq, with a
// verdict bit-identical to Hyperbola{}.Dominates(sa, sb, sq). Cost per call:
// one pass over cq accumulating da² and db², two square roots, and — only
// when cq lies inside Ra and Sq has positive radius — the closed-form
// quartic of Eq. (14). It panics if sq's dimensionality differs from the
// pair's.
func (p *PreparedPair) Dominates(sq geom.Sphere) bool {
	if sq.Dim() != p.dim {
		panic("dominance: spheres with mixed dimensionality")
	}
	if p.obsOn && p.tallyQuery() {
		p.flushObs()
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
// (ignored when the pair overlaps). Anchored.Dominates shares it; the
// caller has tallied the query.
func (p *PreparedPair) verdict(da2, db2, r float64) bool {
	on := p.obsOn
	if p.overlap {
		if on {
			p.tally.overlaps++
			p.tally.falses++
		}
		return false
	}
	da := math.Sqrt(da2)
	db := math.Sqrt(db2)
	if !(db-da > p.rab) { // cq not strictly inside Ra: MDD violated
		if on {
			p.tally.falses++
		}
		return false
	}
	if r == 0 { // cq strictly inside Ra and Sq = {cq}
		if on {
			p.tally.trues++
		}
		return true
	}
	// Coarse accept (ISSUE 6): every point Z of the dominance boundary
	// satisfies db(Z) − da(Z) = rab, so the triangle inequality through each
	// focus gives db − da − rab ≤ 2·dist(cq, Z), i.e. dmin ≥ (db−da−rab)/2 —
	// a lower bound available before the canonical-frame reduction even
	// runs. The absolute margin scales with db+da because the rounding of
	// the two square roots (and of the frame coordinates the full path
	// derives from them) is relative to the focal distances, not to their
	// difference; 1e-12 clears that ~1e-15 noise by three orders, so
	// whenever this test passes the full path's computed dmin clears the
	// radius too, for every dmin branch (line, planar, hyperbola). A NaN or
	// Inf−Inf operand settles the comparison false and falls through.
	if (db-da-p.rab)*0.5-1e-12*(db+da) > r {
		if on {
			p.tally.coarseAccepts++
			p.tally.trues++
		}
		return true
	}
	// Local-Lipschitz accept (ISSUE 17; derivation in DESIGN.md §7). The
	// focal accept pays the global Lipschitz constant 2 of
	// f(X) = |X−cb| − |X−ca|; at cq the constant is L = |v̂b − v̂a|, the unit
	// vectors from ca and cb to cq, with L² = (dcc² − (db−da)²)/(da·db) by the
	// law of cosines. Projecting X−cb on v̂b, and bounding |X−ca| by
	// √(a²+b²) ≤ a + b²/2a for da > r,
	//
	//	min over Sq of f ≥ (db−da) − r·L − r²/(2(da−r)),
	//
	// and when that exceeds rab every point of Sq is strictly inside Ra
	// (Lemma 7). The full path decides the same question for a planar point
	// whose focal distances are da, db, dcc to a few ulp, and its dmin, a
	// minimum over on-curve points, can only sit above the true one. Every
	// 1e-12 below (three orders over that rounding, as in the focal accept)
	// leans towards "undecided": g is capped at dcc (the triangle inequality,
	// which rounding can break by an ulp), L² is padded where dcc² − g²
	// cancels, da is shaved where da − r does, and f being 2-Lipschitz the
	// last margin leaves dmin ≥ r + 1e-12·(db+da). Dimension-free, so valid
	// on the line and for rab = 0; NaN or Inf operands compare false.
	if h := da - r - 1e-12*da; h > 0 {
		dcc := 0.5 * p.twoDcc
		g := min(db-da, dcc)
		sum := db + da
		l2 := ((dcc-g)*(dcc+g) + 1e-12*dcc*sum) / (da * db)
		if g-p.rab-r*math.Sqrt(l2)-r*r/(2*h) > 2e-12*sum {
			if on {
				p.tally.coarseAccepts++
				p.tally.trues++
			}
			return true
		}
	}
	// Canonical coordinates of cq, exactly as reduce computes them.
	p1 := (da2 - db2) / p.twoDcc
	p22 := da2 - (p1+p.alpha)*(p1+p.alpha)
	if p22 < 0 {
		p22 = 0
	}
	p2 := math.Sqrt(p22)
	var v bool
	if p.line || p.rab == 0 {
		v = p.dmin(p1) > r
	} else {
		// Coarse reject (ISSUE 6): d0 is hyperbolaDmin's first candidate distToY(0),
		// inlined verbatim so it stays bit-identical even on degenerate
		// frames (b2 = 0 makes the 0/b2 term NaN — so d0, and then the
		// minimum, is NaN too, and the reject settles the same false verdict
		// hyperbolaDmin would). Since the minimum only ever shrinks from d0,
		// !(d0 > radius) settles the verdict false with zero slack.
		x0 := -p.hA * math.Sqrt(1+0/p.b2)
		d0 := math.Hypot(p1-x0, p2)
		if !(d0 > r) {
			if on {
				p.tally.coarseRejects++
			}
			v = false
		} else {
			v = p.dminBeats(d0, p1, p2, r)
		}
	}
	if on {
		if v {
			p.tally.trues++
		} else {
			p.tally.falses++
		}
	}
	return v
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
// float64; d0 is the sequence's first candidate, distToY(0), which the
// caller has already computed. The minimum only shrinks along the sequence,
// so the moment a running prefix of it fails to clear r the final value
// fails too and the verdict is settled false. A NaN prefix settles false
// exactly as hyperbolaDmin's NaN would. Only checks that still clear r after the closed-form candidates
// reach the quartic, which is what keeps the quartic_solves counter an
// honest count of solves actually performed.
func (p *PreparedPair) dminBeats(d0, p1, p2, r float64) bool {
	hA, b2 := p.hA, p.b2

	dmin := d0

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

	if p.obsOn {
		p.tally.quartics++
	}
	P1 := p1 / p.alpha
	P2 := p2 / p.alpha
	q3 := p.c3 * P2
	q2 := p.hatB2 * (1 + p.hatB2*P2*P2 - p.hatA2*P1*P1)
	q1 := p.c1 * P2
	q0 := p.c0 * P2 * P2

	roots, n := poly.Quartic4(1.0, q3, q2, q1, q0)
	for _, y := range roots[:n] {
		x := -hA * math.Sqrt(1+(p.alpha*y)*(p.alpha*y)/b2)
		if dd := math.Hypot(p1-x, p2-p.alpha*y); dd < dmin {
			dmin = dd
		}
	}
	return dmin > r
}
