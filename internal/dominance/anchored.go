package dominance

import (
	"math"

	"hyperdom/internal/geom"
)

// Anchored evaluates a criterion with (Sa, Sq) fixed and Sb varying — the
// shape of the kNN final filter, which asks Dom(Sk, S, Sq) for one Sk and
// one query against every surviving candidate S. For the Hyperbola
// criterion it is a kernel: da² = Dist²(cq, ca) is computed once by Reset,
// and each Dominates call is one fused pass over cb accumulating
// dcc² = Dist²(ca, cb) and db² = Dist²(cq, cb), then the PreparedPair scalar
// frame and verdict — the same code, so verdicts are bit-identical to
// PreparedPair and to Hyperbola{}.Dominates(sa, sb, sq)
// (FuzzPreparedPairAgree). DominatesBlock decides many candidates at once
// with the same verdicts and tallies (FuzzAnchoredBlockAgree). Any other
// criterion is simply called.
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
	dcc2, db2 := a.dists(sb.Center)
	a.p.frame(len(sb.Center), dcc2, a.sa.Radius+sb.Radius)
	return a.p.verdict(a.da2, db2, a.sq.Radius)
}

// dists is the kernel's one pass over cb: dcc² = Dist²(ca, cb) and
// db² = Dist²(cq, cb), in the summation order every path shares.
func (a *Anchored) dists(cb []float64) (dcc2, db2 float64) {
	ca, cq := a.sa.Center, a.sq.Center
	if len(cb) != len(ca) {
		panic("dominance: spheres with mixed dimensionality")
	}
	ca, cq = ca[:len(cb)], cq[:len(cb)]
	for i := range cb {
		e := cb[i] - ca[i]
		dcc2 += e * e
		eb := cq[i] - cb[i]
		db2 += eb * eb
	}
	return dcc2, db2
}

// Block is DominatesBlock's working storage: one row of scalars per
// candidate and the rows the O(1) exits left open. It holds no
// references, so a pooled Block needs no clearing; the zero value is
// ready to use.
type Block struct {
	rows []blockRow
	open []int32
}

// blockRow is one candidate's pass-1 output.
type blockRow struct{ dcc2, db2, rab float64 }

// Cap reports how many candidates b holds storage for, so that an owner
// pooling it can cap what the pool keeps.
func (b *Block) Cap() int { return cap(b.rows) }

// DominatesBlock sets dom[i] to a.Dominates(*sbs[i]) for every i, with the
// same verdicts and the same obs tallies, one anchored Sk against a whole
// candidate set. dom must be at least as long as sbs; b is scratch. On the
// Hyperbola kernel it decides in passes, so that each loop runs one kind
// of work and its branches follow one stage's statistics instead of the
// interleaved ladder's:
//
//  1. dcc² and db² (dists) and rab for every candidate;
//  2. the O(1) exits of verdict over those scalars — overlap, MDD band,
//     point query, local-Lipschitz accept — in verdict's order and with its
//     expressions: da = √da² is the anchor's, √dcc² is frame's
//     2·dcc halved by lipschitzAccept exactly as verdict halves twoDcc;
//  3. frame and settle for the candidates pass 2 left open, which are
//     exactly those verdict would have carried past its O(1) exits.
//
// Any other criterion is called once per candidate, in order. It panics if
// a candidate's dimensionality differs from the anchor's.
func (a *Anchored) DominatesBlock(sbs []*geom.Sphere, dom []bool, b *Block) {
	dom = dom[:len(sbs)]
	if a.crit != nil {
		for i, sb := range sbs {
			dom[i] = a.crit.Dominates(a.sa, *sb, a.sq)
		}
		return
	}
	if cap(b.rows) < len(sbs) {
		b.rows = make([]blockRow, len(sbs))
	}
	rows := b.rows[:len(sbs)]
	for i, sb := range sbs {
		dcc2, db2 := a.dists(sb.Center)
		rows[i] = blockRow{dcc2, db2, a.sa.Radius + sb.Radius}
	}

	// Pass 2 computes every exit's test on every row and combines them as
	// 0/1 flags, so its only branch is the loop's: which exit settles a row
	// is as good as random, and a mispredicted branch costs more than the
	// tests a row did not need.
	da := math.Sqrt(a.da2)
	r := a.sq.Radius
	h := da - r - 1e-12*da
	point := flag(r == 0)
	hpos := flag(h > 0)
	curv := r * r / (2 * h)
	if cap(b.open) < len(rows) {
		b.open = make([]int32, len(rows))
	}
	open := b.open[:len(rows)]
	nOpen := 0
	var overlaps, accepts uint64
	for i := range rows {
		row := &rows[i]
		db := math.Sqrt(row.db2)
		framed := flag(!(row.dcc2 <= row.rab*row.rab)) // frame's overlap test, negated
		inside := framed & flag(db-da > row.rab)       // the MDD test passed
		lip := hpos & flag(lipschitzAccept(da, db, 2*math.Sqrt(row.dcc2), row.rab, r, curv))
		dom[i] = inside&(point|lip) != 0
		overlaps += uint64(1 - framed)
		accepts += uint64(inside &^ point & lip)
		open[nOpen] = int32(i)
		nOpen += int(inside &^ (point | lip))
	}
	open = open[:nOpen]
	a.p.countN(&a.p.tally.overlaps, overlaps)
	a.p.countN(&a.p.tally.coarseAccepts, accepts)

	d := len(a.sa.Center)
	for _, i := range open {
		row := &rows[i]
		a.p.frame(d, row.dcc2, row.rab)
		dom[i] = a.p.settle(a.da2, row.db2, r)
	}
}

// flag is b as 0 or 1, without a branch.
func flag(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// FlushObs is PreparedPair.FlushObs for the Hyperbola kernel.
func (a *Anchored) FlushObs() { a.p.flushObs() }
