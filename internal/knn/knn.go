// Package knn implements the k-nearest-neighbour query over hypersphere
// databases defined in Section 6 of the paper (Definition 2), the
// application that exercises the dominance operator.
//
// Given a query hypersphere Sq and a database D of hyperspheres, let Sk be
// the member of D with the k-th smallest MaxDist to Sq. The answer of the
// kNN query is every member of D that is NOT dominated by Sk with respect
// to Sq — the set of objects that could still be among the k nearest under
// the uncertainty the spheres model.
//
// Three evaluators are provided:
//
//   - BruteForce: scans D; with the Exact (or Hyperbola) criterion this is
//     the ground truth the paper measures precision against.
//   - DF: the depth-first tree traversal of Roussopoulos et al. (ref [26]).
//   - HS: the best-first traversal of Hjaltason and Samet (ref [15]).
//
// DF and HS run over a pointer index (package sstree, mtree or rtree); a
// packed snapshot (WrapPacked, SearchForest) is walked depth-first only.
// Both prune with Lemma 9 alone (Case 3 of Section 6) while tracking the k
// smallest MaxDist; the pluggable dominance criterion runs once per
// surviving candidate, against the final Sk — Definition 2 exactly (see
// bestList).
// With a correct criterion the result is a superset of the truth (recall
// 100%); with Hyperbola it is exact.
package knn

import (
	"fmt"
	"math"
	"sort"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/vec"
)

// Item is the indexed unit, shared with the index packages.
type Item = geom.Item

// Stats counts the work a query performed.
type Stats struct {
	NodesVisited int // internal + leaf index nodes touched
	Items        int // data items reached through the index (or scanned)
	DomChecks    int // dominance-criterion invocations: one per candidate the final filter saw
	Pruned       int // items discarded: Case 3 during the traversal plus final-filter verdicts
}

// Result is the answer of a kNN query.
type Result struct {
	// Items is the answer set, sorted by ascending MaxDist to the query.
	Items []Item
	// K is the k the query ran with.
	K int
	// Stats describes the work performed.
	Stats Stats
}

// IDs returns the answer's item IDs in result order.
func (r Result) IDs() []int {
	out := make([]int, len(r.Items))
	for i, it := range r.Items {
		out[i] = it.ID
	}
	return out
}

// BruteForce evaluates the kNN query by Definition 2 with a full scan:
// find Sk, then keep every item the criterion does not prove dominated.
// With dominance.Exact{} or dominance.Hyperbola{} the result is the ground
// truth. If D has fewer than k items the whole database is the answer.
func BruteForce(items []Item, sq geom.Sphere, k int, crit dominance.Criterion) Result {
	if k <= 0 {
		panic(fmt.Sprintf("knn: k = %d", k))
	}
	res := Result{K: k}
	res.Stats.Items = len(items)
	defer flushStats(&res.Stats)
	if len(items) == 0 {
		return res
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	maxd := make([]float64, len(items))
	for i, it := range items {
		maxd[i] = geom.MaxDist(it.Sphere, sq)
	}
	sort.Slice(order, func(a, b int) bool {
		if maxd[order[a]] != maxd[order[b]] {
			return maxd[order[a]] < maxd[order[b]]
		}
		return items[order[a]].ID < items[order[b]].ID
	})
	if len(items) <= k {
		for _, idx := range order {
			res.Items = append(res.Items, items[idx])
		}
		return res
	}
	sk := items[order[k-1]]
	for _, idx := range order {
		res.Stats.DomChecks++
		if crit.Dominates(sk.Sphere, items[idx].Sphere, sq) {
			res.Stats.Pruned++
			continue
		}
		res.Items = append(res.Items, items[idx])
	}
	return res
}

// bestList is the best-known list L of Section 6, reduced to what
// Definition 2 needs: top holds the k smallest (MaxDist, ID) seen — its k-th
// is the running Sk and alone defines distK — and buf every other candidate
// Case 3 did not discard, unordered.
//
// The traversal never consults the criterion. Section 6's literal Case 2
// check and post-Case-1 eviction sweep decide against the k-th candidate *at
// encounter time*, but Definition 2 defines the answer against the FINAL
// Sk, and dominance by an interim Sk does not imply dominance by the final
// one (distK shrinks as the search progresses and dominance is not monotone
// in MaxDist — TestInterimVerdictIsNotFinal), so every interim verdict
// would have to be decided again. Nor can an interim verdict steer the
// traversal: Dom(Sa,Sb,Sq) implies MaxDist(Sa,Sq) < MaxDist(Sb,Sq), so
// nothing Sk dominates is among the k smallest, and distK — with it every
// Case 3 and node prune — is the same with or without them. Case 3 prunes
// are final as they stand: distK never increases, so MinDist(S,Sq) > distK
// at any time implies MaxDist(Sk_final,Sq) ≤ distK < MinDist(S,Sq), which is
// DCMinMax. finish() then runs the criterion once per surviving candidate
// against the final Sk and sorts the survivors.
type bestList struct {
	sq    geom.Sphere
	crit  dominance.Criterion
	anch  dominance.Anchored // crit anchored on (final Sk, sq) by finish
	top   TopK
	buf   []Candidate
	stats *Stats
}

// reset reinitialises the list for a new search, reusing the candidate
// storage retained from previous searches on the same scratch.
func (l *bestList) reset(sq geom.Sphere, k int, crit dominance.Criterion, stats *Stats) {
	l.sq = sq
	l.crit = crit
	l.stats = stats
	l.top.Reset(k)
	l.buf = clearLen(l.buf)
}

// distK returns the k-th smallest MaxDist seen, or +Inf before k items.
func (l *bestList) distK() float64 {
	if !l.top.Full() {
		return math.Inf(1)
	}
	return l.top.Kth().MaxDist
}

// offer processes one data item reached by the traversal.
func (l *bestList) offer(it *Item) {
	l.offerDist(it, vec.Dist(it.Sphere.Center, l.sq.Center))
}

// offerDist is offer with the item's center-to-query distance already in
// hand: the packed leaf pass reads it off the snapshot's packed centers,
// and both MaxDist and MinDist derive from it — in exactly the operation
// order of geom.MaxDist/geom.MinDist, which keeps the pointer and packed
// paths bit-identical — for the price of a single sqrt. MinDist decides
// Case 3 and is not stored.
func (l *bestList) offerDist(it *Item, dist float64) {
	l.stats.Items++
	minDist := dist - it.Sphere.Radius - l.sq.Radius
	if !(minDist > 0) {
		minDist = 0
	}
	if l.top.Full() && minDist > l.top.Kth().MaxDist {
		// Case 3: Lemma 9 — MinMax-provably dominated by the final Sk.
		l.stats.Pruned++
		return
	}
	c := Candidate{Item: it, MaxDist: dist + it.Sphere.Radius + l.sq.Radius}
	// Cases 1 and 2 differ only in who stays among the k smallest: whichever
	// of c and the old k-th does not waits in buf for the final filter.
	if out, spilled := l.top.Offer(c); spilled {
		l.buf = append(l.buf, out)
	}
}

// finish selects the final Sk, applies the Definition 2 filter — the
// criterion's one call per candidate — and returns the survivors in
// (MaxDist, ID) order, copied out of the index once. Fewer than k items seen
// means the whole database qualifies (buf is empty then).
func (l *bestList) finish() []Item {
	es := l.top.es
	if l.top.Full() {
		sk := l.top.Kth().Item.Sphere
		l.anch.Reset(l.crit, sk, l.sq)
		held := len(l.buf)
		es = l.buf[:0] // compact buf in place, then take top's survivors
		for _, part := range [2][]Candidate{l.buf, l.top.es} {
			for i := range part {
				l.stats.DomChecks++
				if c := &part[i]; l.anch.Dominates(c.Item.Sphere) {
					l.stats.Pruned++
				} else {
					es = append(es, *c)
				}
			}
		}
		if len(es) < held {
			clear(l.buf[len(es):held]) // what the compaction vacated; see release
		}
		l.buf = es
	}
	if len(es) == 0 {
		return nil
	}
	sortCandidates(es)
	out := make([]Item, len(es))
	for i := range es {
		out[i] = *es[i].Item
	}
	return out
}

// maxPooledCandidates caps the candidate storage a pooled scratch keeps. A
// whole-collection answer grows top.es and buf to n entries; storage past
// the cap is left to the collector instead of being pinned in the pool.
const maxPooledCandidates = 16 << 10

// release drops every reference the list holds before its scratch goes back
// to the pool: the candidates point into an index the caller may close (a
// snapshot's unmapped pages) or drop, and sq, crit and the anchored kernel
// hold the request's query centre and the last Sk's. Clearing by length is
// enough, and costs what the search wrote rather than the pooled capacity:
// slots past len(top.es) and len(buf) are zero at all times — offers only
// append, finish zeroes what its compaction vacates, reset clears by length.
func (l *bestList) release() {
	l.anch.FlushObs()
	*l = bestList{top: TopK{es: poolCandidates(l.top.es)}, buf: poolCandidates(l.buf)}
}

// poolCandidates returns s cleared by length for the pool, or nil when its
// capacity is over maxPooledCandidates.
func poolCandidates(s []Candidate) []Candidate {
	if cap(s) > maxPooledCandidates {
		return nil
	}
	return clearLen(s)
}
