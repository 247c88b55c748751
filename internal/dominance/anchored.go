package dominance

import "hyperdom/internal/geom"

// Anchored evaluates a criterion with (Sa, Sq) fixed and Sb varying — the
// shape of the kNN final filter, which asks Dom(Sk, S, Sq) for one Sk and
// one query against every surviving candidate S. For the Hyperbola
// criterion it is a kernel: da² = Dist²(cq, ca) is computed once by Reset,
// and each Dominates call is one fused pass over cb accumulating
// dcc² = Dist²(ca, cb) and db² = Dist²(cq, cb), then the PreparedPair scalar
// frame and verdict — the same code, so verdicts are bit-identical to
// PreparedPair and to Hyperbola{}.Dominates(sa, sb, sq)
// (FuzzPreparedPairAgree). Any other criterion is simply called.
//
// An Anchored retains references to the centers of Sa and Sq; the caller
// must not mutate them while it is in use. Dominates performs no heap
// allocation on the Hyperbola path. Not safe for concurrent use.
type Anchored struct {
	crit   Criterion // nil: Hyperbola, through the kernel below
	sa, sq geom.Sphere
	da2    float64
	p      PreparedPair // scalar frame of the current (Sa, Sb) + obs tally
}

// Reset anchors a on (sa, sq) under crit. It panics if the spheres mix
// dimensionalities.
func (a *Anchored) Reset(crit Criterion, sa, sq geom.Sphere) {
	if sq.Dim() != sa.Dim() {
		panic("dominance: spheres with mixed dimensionality")
	}
	a.sa, a.sq = sa, sq
	if _, hyp := crit.(Hyperbola); !hyp {
		a.crit = crit
		return
	}
	a.crit = nil
	a.da2 = 0
	for i, c := range sq.Center {
		ea := c - sa.Center[i]
		a.da2 += ea * ea
	}
}

// Dominates reports whether the anchor Sa dominates sb with respect to the
// anchor Sq. It panics if sb's dimensionality differs from the anchor's.
func (a *Anchored) Dominates(sb geom.Sphere) bool {
	if a.crit != nil {
		return a.crit.Dominates(a.sa, sb, a.sq)
	}
	ca, cq, cb := a.sa.Center, a.sq.Center, sb.Center
	if len(cb) != len(ca) {
		panic("dominance: spheres with mixed dimensionality")
	}
	ca, cq = ca[:len(cb)], cq[:len(cb)]
	var dcc2, db2 float64
	for i := range cb {
		e := cb[i] - ca[i]
		dcc2 += e * e
		eb := cq[i] - cb[i]
		db2 += eb * eb
	}
	a.p.frame(len(ca), dcc2, a.sa.Radius+sb.Radius)
	if a.p.obsOn && a.p.tallyQuery() {
		a.p.flushObs()
	}
	return a.p.verdict(a.da2, db2, a.sq.Radius)
}

// QuarticSolves is PreparedPair.QuarticSolves for the Hyperbola kernel.
func (a *Anchored) QuarticSolves() uint64 { return a.p.QuarticSolves() }

// FlushObs is PreparedPair.FlushObs for the Hyperbola kernel.
func (a *Anchored) FlushObs() { a.p.flushObs() }
