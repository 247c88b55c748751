package dominance

import (
	"math"

	"hyperdom/internal/geom"
	"hyperdom/internal/poly"
)

// Hyperbola is the paper's decision criterion (Algorithm 1, Section 4): the
// first correct, sound and O(d) procedure for hypersphere dominance in any
// dimensionality.
//
// When Sa and Sb do not overlap, the boundary of the region
// Ra = { x : Dist(cb,x) − Dist(ca,x) > ra+rb } is one branch of a
// hyperboloid of revolution with foci ca and cb (Eq. 8), and
// Dom(Sa,Sb,Sq) holds iff Sq lies entirely inside Ra (Lemma 7), i.e. iff cq
// lies inside Ra and the minimum distance dmin from cq to the branch exceeds
// rq. dmin is found in O(d): the rotational symmetry about the focal axis
// reduces the problem to two coordinates, and the Lagrange conditions of the
// constrained minimisation reduce to the quartic of Eq. (14), whose real
// roots poly.Quartic4 isolates in O(1).
type Hyperbola struct{}

// Name implements Criterion.
func (Hyperbola) Name() string { return "Hyperbola" }

// Correct implements Criterion (Theorem 1).
func (Hyperbola) Correct() bool { return true }

// Sound implements Criterion (Theorem 1).
func (Hyperbola) Sound() bool { return true }

// Dominates implements Criterion in O(d) time (Theorem 2).
func (Hyperbola) Dominates(sa, sb, sq geom.Sphere) bool {
	checkDims(sa, sb, sq)
	red, ok := reduce(sa, sb, sq)
	// Sa and Sb overlap (Dom is false by Lemma 1), or cq ∈ Sq itself
	// violates the MDD condition.
	if !ok || !red.inside {
		return false
	}
	if sq.Radius == 0 { // cq strictly inside Ra and Sq = {cq}.
		return true
	}
	return hyperbolaDmin(red) > sq.Radius
}

// reduced is the canonical 2-D form of a dominance instance: coordinates are
// transformed (Section 4.3.1) so that ca = (−α, 0, …, 0) and
// cb = (α, 0, …, 0). By rotational symmetry about the focal axis only two
// coordinates of cq matter: p1 along the axis and p2 = the distance from cq
// to the axis (p2 ≥ 0).
type reduced struct {
	alpha  float64 // Dist(ca,cb)/2, half the focal distance
	rab    float64 // ra + rb; the branch is Dist(cb,x) − Dist(ca,x) = rab
	p1, p2 float64 // cq in the canonical frame
	inside bool    // cq strictly inside Ra: Dist(cb,cq) − Dist(ca,cq) > rab
	line   bool    // the ambient space is 1-dimensional
}

// reduce performs the O(d) coordinate transformation. It reports ok=false
// when Sa and Sb overlap (Dist(ca,cb) ≤ ra+rb), in which case the hyperbola
// does not exist and Dom is false by Lemma 1.
func reduce(sa, sb, sq geom.Sphere) (reduced, bool) {
	d := sa.Dim()
	ca, cb, cq := sa.Center, sb.Center, sq.Center
	var dcc2, da2, db2 float64
	for i := 0; i < d; i++ {
		e := cb[i] - ca[i]
		dcc2 += e * e
		ea := cq[i] - ca[i]
		da2 += ea * ea
		eb := cq[i] - cb[i]
		db2 += eb * eb
	}
	rab := sa.Radius + sb.Radius
	if dcc2 <= rab*rab {
		return reduced{}, false
	}
	dcc := math.Sqrt(dcc2)
	da := math.Sqrt(da2)
	db := math.Sqrt(db2)
	alpha := dcc / 2
	// With ca = (−α,0,…) and cb = (α,0,…): da² − db² = 4·α·p1.
	p1 := (da2 - db2) / (2 * dcc)
	p22 := da2 - (p1+alpha)*(p1+alpha)
	if p22 < 0 {
		p22 = 0
	}
	return reduced{
		alpha:  alpha,
		rab:    rab,
		p1:     p1,
		p2:     math.Sqrt(p22),
		inside: db-da > rab,
		line:   d == 1,
	}, true
}

// hyperbolaDmin returns the minimum distance from cq = (p1, p2) to the
// branch of the hyperbola
//
//	x²/A² − y²/B² = 1,  x ≤ −A,   A = rab/2,  B² = α² − A²
//
// (the boundary of Ra in the canonical frame) as the least distance over the
// closed-form candidates and the real roots of the quartic of Eq. (14).
//
// Subtleties the paper glosses over (see DESIGN.md §4):
//
//   - Squaring Eq. (8) twice admits both branches; every candidate is
//     projected onto the left branch through its y-coordinate, which never
//     decreases the reported distance below the true dmin and leaves the
//     true minimiser fixed.
//   - rab = 0 degenerates the branch to the hyperplane x = 0.
//   - p1 = 0 and p2 = 0 make the Lagrange back-substitution formulas
//     (Eqs. 12–13) divide by zero; their critical points are added in closed
//     form instead.
func hyperbolaDmin(red reduced) float64 {
	alpha, rab, p1, p2 := red.alpha, red.rab, red.p1, red.p2
	if red.line {
		// In a 1-dimensional ambient space the boundary of Ra is the single
		// point x = −rab/2; the hyperboloid's off-axis points do not exist.
		return math.Abs(p1 + rab/2)
	}
	if rab == 0 {
		// Degenerate "hyperbola": the perpendicular-bisector hyperplane.
		return math.Abs(p1)
	}
	hA := rab / 2
	b2 := (alpha - hA) * (alpha + hA) // B², > 0 strictly (non-overlap)

	// Distance to the left-branch point with ordinate y.
	distToY := func(y float64) float64 {
		x := -hA * math.Sqrt(1+y*y/b2)
		dx := p1 - x
		dy := p2 - y
		return math.Hypot(dx, dy)
	}

	// Vertex (−A, 0) is always on the branch: a free upper-bound candidate
	// that also covers the p2 = 0 vertex-optimal case.
	dmin := distToY(0)

	// Critical point with λ = −1/a5 (the p1 = 0 case of Eq. 12): the unique
	// minimiser when cq is on the perpendicular-bisector plane, an on-curve
	// candidate otherwise.
	if y := p2 * b2 / (alpha * alpha); y != 0 {
		if dd := distToY(y); dd < dmin {
			dmin = dd
		}
	}

	// Critical points with λ = −1/a4 (the p2 = 0 case of Eq. 13): off-axis
	// minimisers exist when cq sits far enough along the axis. The candidate
	// is on the curve, hence safe to add unconditionally — it also covers
	// the numerically-delicate region where p2 is tiny but non-zero.
	if x := p1 * hA * hA / (alpha * alpha); x < 0 {
		if y2 := b2 * (x*x/(hA*hA) - 1); y2 > 0 {
			y := math.Sqrt(y2)
			if dd := distToY(y); dd < dmin {
				dmin = dd
			}
		}
	}

	// The generic case: the quartic of Eq. (14), solved after the Möbius
	// change of variable of Eq. (13), y = p2/(1 + 4r²λ) — the ordinate of
	// the critical point itself. The transformed quartic
	//
	//	α⁴·y⁴ − 2α²B²p2·y³ + B²(α⁴ + B²p2² − A²p1²)·y² − 2α²B⁴p2·y + B⁶p2² = 0
	//
	// has the same roots as Eq. (14) (one-to-one via Eq. 13) but stays
	// well-conditioned when rab ≪ Dist(ca,cb), the regime where the raw
	// λ-quartic's coefficients span ten orders of magnitude. Coordinates
	// are additionally normalised by α. Every real root is a candidate
	// ordinate; spurious roots introduced by squaring land on the curve via
	// the projection onto the left branch and can only overestimate, never
	// underestimate, their own candidate distance. Quartic4 returns every
	// real root (it isolates them between the quartic's critical points), so
	// the minimiser is among the candidates by construction (rootsDist).
	obsQuarticSolves.Inc()
	hatA2 := (hA / alpha) * (hA / alpha)
	hatB2 := b2 / (alpha * alpha)
	P1 := p1 / alpha
	P2 := p2 / alpha
	q4 := 1.0
	q3 := -2 * hatB2 * P2
	q2 := hatB2 * (1 + hatB2*P2*P2 - hatA2*P1*P1)
	q1 := -2 * hatB2 * hatB2 * P2
	q0 := hatB2 * hatB2 * hatB2 * P2 * P2

	roots, n := poly.Quartic4(q4, q3, q2, q1, q0)
	return min(dmin, rootsDist(hA, b2, alpha, p1, p2, roots[:n]))
}

// rootsDist returns the least distance from cq = (p1, p2) to the left
// branch over the ordinates α·y of the quartic's roots ys (+Inf if none is
// finite), the nearest polished by Newton on the distance (footDist). Far
// along an almost straight branch the feet on the two branches squaring
// admits nearly coincide: the float64 quartic's near-double root is off by
// ~1e-8 of itself, which lifts dmin by 5e-8 (TestHyperbolaDminCensus).
// hyperbolaDmin and dminBeats share it, so both take the same candidates.
func rootsDist(hA, b2, alpha, p1, p2 float64, ys []float64) float64 {
	best, bestY := math.Inf(1), 0.0
	for _, y := range ys {
		y *= alpha
		x := -hA * math.Sqrt(1+y*y/b2)
		if dd := math.Hypot(p1-x, p2-y); dd < best {
			best, bestY = dd, y
		}
	}
	if math.IsInf(best, 1) {
		return best
	}
	return footDist(hA, b2, p1, p2, bestY)
}

// footSteps is how many Newton steps footDist takes at most.
const footSteps = 3

// footDist returns the least distance from cq = (p1, p2) to the branch
// points x(y) = −hA·√(1 + y²/b2) visited by Newton's method on
// h(y) = |cq − (x(y), y)|²/2 from ordinate y, the start included, up to
// footSteps steps or until a step leaves y unchanged, with the analytic
//
//	x′ = −hA·y/(b2·s),  x″ = −hA/(b2·s³),  s = √(1 + y²/b2),
//	h′ = (x − p1)·x′ + (y − p2),  h″ = x′² + (x − p1)·x″ + 1.
//
// Every point visited lies on the branch, so the result is an upper bound
// on the true dmin. The iteration stops where h″ ≤ 0 (cq beyond the centre
// of curvature, where the λ = −1/a4 candidate covers the minimiser).
// rootsDist polishes the nearest root of Eq. (14) with it; started from
// y = p2, the point level with cq, it is the witness of PreparedPair's
// certificate reject (certify).
func footDist(hA, b2, p1, p2, y float64) float64 {
	s := math.Sqrt(1 + y*y/b2)
	x := -hA * s
	dmin := math.Hypot(p1-x, p2-y)
	for i := 0; i < footSteps; i++ {
		x1 := -hA * y / (b2 * s)
		x2 := -hA / (b2 * s * s * s)
		h2 := x1*x1 + (x-p1)*x2 + 1
		if !(h2 > 0) {
			break
		}
		next := y - ((x-p1)*x1+(y-p2))/h2
		if next == y {
			break
		}
		y = next
		s = math.Sqrt(1 + y*y/b2)
		x = -hA * s
		if dd := math.Hypot(p1-x, p2-y); dd < dmin {
			dmin = dd
		}
	}
	return dmin
}
