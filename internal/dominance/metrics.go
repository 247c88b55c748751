package dominance

import "hyperdom/internal/obs"

// Criterion-level observability counters, one per event that only
// this package sees: how checks were settled. How many checks ran and how
// many pruned a candidate are the callers' own counts (knn.dom_checks,
// shard.merge_pruned), so they are not kept twice. The stateless Hyperbola
// path counts its quartic solves directly (the gate load and an atomic
// add); the PreparedPair kernel tallies into plain struct-local
// fields and flushes them here at amortization points, so the per-check hot
// path stays free of atomic traffic — see pairTally.
var (
	obsQuarticSolves = obs.New("dominance.quartic_solves")
	obsPrepOverlap   = obs.New("dominance.prepared.overlap_shortcircuit")

	// Fat-sphere queries settled without the quartic solve — accepts by the
	// local-Lipschitz lower bound on dmin and by the chord certificate,
	// rejects by the witness certificate. The verdicts are identical either
	// way; these counters say how often the expensive tail was skipped.
	obsPrepCoarseAccept = obs.New("dominance.prepared.coarse_accepts")
	obsPrepCoarseReject = obs.New("dominance.prepared.coarse_rejects")
)

// obsFlushEvery bounds how many events a PreparedPair tallies locally
// before pushing them into the global counters, so long-lived pairs cannot
// lag a snapshot by more than this many events. The flush costs a handful
// of atomic adds amortized over the whole window.
const obsFlushEvery = 1 << 12

// pairTally is the PreparedPair's local event accumulator. The fields are
// plain uint64s owned by the pair's single goroutine: incrementing one
// costs a register add, not a LOCK-prefixed RMW, which is what keeps the
// instrumented kernel within the <5% overhead budget (TestObsOverhead).
// Reset preserves the tally across pair changes; FlushObs (or the
// obsFlushEvery threshold) drains it into the registry.
type pairTally struct {
	events        uint64 // sum of the four below since the last flush
	overlaps      uint64
	quartics      uint64
	coarseAccepts uint64
	coarseRejects uint64
}

// count tallies one event into *n, draining the tally first when it
// already holds obsFlushEvery events, so the event just counted is always
// still in the tally when count returns. The tally runs whatever the obs
// gate says; the flush is what the gate drops.
func (p *PreparedPair) count(n *uint64) {
	if p.tally.events >= obsFlushEvery {
		p.flushObs()
	}
	p.tally.events++
	*n++
}

// countN tallies k events into *n at once, for a caller that counted them
// in a local: the totals a flush publishes are those of k calls of count.
func (p *PreparedPair) countN(n *uint64, k uint64) {
	if p.tally.events >= obsFlushEvery {
		p.flushObs()
	}
	p.tally.events += k
	*n += k
}

// flushObs drains the local tally into the global counters and zeroes it.
// Kept out of line so that count, which calls it once per obsFlushEvery
// events, inlines into the kernel's exits.
//
//go:noinline
func (p *PreparedPair) flushObs() {
	t := &p.tally
	if t.overlaps != 0 {
		obsPrepOverlap.Add(t.overlaps)
	}
	if t.quartics != 0 {
		obsQuarticSolves.Add(t.quartics)
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
