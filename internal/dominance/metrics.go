package dominance

import "hyperdom/internal/obs"

// Criterion-level observability counters (ISSUE 2): the work counts the
// paper's evaluation is stated in. The stateless Hyperbola path increments
// them directly (one obs.On() gate load plus an atomic add per event); the
// PreparedPair kernel tallies into plain struct-local fields and flushes
// them here at amortization points, so the per-query hot path stays free
// of atomic traffic — see pairTally.
var (
	obsHypInvocations = obs.New("dominance.hyperbola.invocations")
	obsHypTrue        = obs.New("dominance.hyperbola.verdict_true")
	obsHypFalse       = obs.New("dominance.hyperbola.verdict_false")
	obsHypOverlap     = obs.New("dominance.hyperbola.overlap_shortcircuit")
	obsQuarticSolves  = obs.New("dominance.quartic_solves")

	obsPrepResets  = obs.New("dominance.prepared.resets")
	obsPrepQueries = obs.New("dominance.prepared.queries")
	obsPrepTrue    = obs.New("dominance.prepared.verdict_true")
	obsPrepFalse   = obs.New("dominance.prepared.verdict_false")
	obsPrepOverlap = obs.New("dominance.prepared.overlap_shortcircuit")
	obsPrepReuse   = obs.New("dominance.prepared.reuse_hits")

	// Coarse-filter outcomes: fat-sphere queries settled without the curve
	// search + quartic solve — accepts by the two lower bounds on dmin (the
	// focal one and the local-Lipschitz one), rejects by dmin's first
	// on-curve candidate. The verdicts are identical either way; these
	// counters say how often the expensive tail was skipped.
	obsPrepCoarseAccept = obs.New("dominance.prepared.coarse_accepts")
	obsPrepCoarseReject = obs.New("dominance.prepared.coarse_rejects")
)

// histPreparedBatch times whole DominatesBatch sweeps (ISSUE 3): the
// ~30ns per-query kernel cannot afford a clock read per verdict, so the
// latency observability of this layer is stated per batch — one time.Now
// delta amortized over the sweep, same discipline as the counter tallies.
var histPreparedBatch = obs.NewHistogram("dominance.prepared_batch_latency", "")

// obsFlushEvery bounds how many queries a PreparedPair tallies locally
// before pushing into the global counters, so long-lived pairs cannot lag
// a snapshot by more than this many events. Power of two; the flush costs
// a handful of atomic adds amortized over the whole window.
const obsFlushEvery = 1 << 12

// pairTally is the PreparedPair's local event accumulator. The fields are
// plain uint64s owned by the pair's single goroutine: incrementing one
// costs a register add, not a LOCK-prefixed RMW, which is what keeps the
// instrumented kernel within the <5% overhead budget (TestObsOverhead)
// at ~30ns per point query. Reset preserves the tally across pair changes;
// FlushObs (or the obsFlushEvery threshold) drains it into the registry.
type pairTally struct {
	resets        uint64
	queries       uint64
	trues         uint64
	falses        uint64
	overlaps      uint64
	quartics      uint64
	reuse         uint64
	coarseAccepts uint64
	coarseRejects uint64
}

// flushObs drains the local tally into the global counters and zeroes it.
func (p *PreparedPair) flushObs() {
	t := &p.tally
	if t.resets != 0 {
		obsPrepResets.Add(t.resets)
	}
	if t.queries != 0 {
		obsPrepQueries.Add(t.queries)
	}
	if t.trues != 0 {
		obsPrepTrue.Add(t.trues)
	}
	if t.falses != 0 {
		obsPrepFalse.Add(t.falses)
	}
	if t.overlaps != 0 {
		obsPrepOverlap.Add(t.overlaps)
	}
	if t.quartics != 0 {
		obsQuarticSolves.Add(t.quartics)
	}
	if t.reuse != 0 {
		obsPrepReuse.Add(t.reuse)
	}
	if t.coarseAccepts != 0 {
		obsPrepCoarseAccept.Add(t.coarseAccepts)
	}
	if t.coarseRejects != 0 {
		obsPrepCoarseReject.Add(t.coarseRejects)
	}
	*t = pairTally{}
}

// FlushObs publishes the pair's locally tallied events to the obs
// registry. Owners of long-lived pairs (the kNN scratch arena) call it at
// batch boundaries so snapshots are exact there; between flushes a snapshot
// can lag by at most obsFlushEvery events per live pair.
func (p *PreparedPair) FlushObs() { p.flushObs() }

// tallyQuery records one Dominates call on the pair — the query count and
// the reuse accounting (a query on a pair that already served one since its
// last Reset is a "reuse hit", the amortization PreparePair exists for) —
// and reports whether the tally is due its periodic drain into the
// registry. The caller drains: without that call in its body tallyQuery
// inlines, which keeps the enabled kernel inside TestObsOverhead's budget.
func (p *PreparedPair) tallyQuery() (flush bool) {
	p.tally.queries++
	if p.fresh {
		p.fresh = false
	} else {
		p.tally.reuse++
	}
	return p.tally.queries >= obsFlushEvery
}
