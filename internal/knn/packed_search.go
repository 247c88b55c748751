package knn

import (
	"math"

	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
)

// obsSearchPacked counts searches answered off a frozen SoA snapshot
// (ISSUE 5) rather than the pointer-chasing node path.
var obsSearchPacked = obs.New("knn.searches.packed")

// quantOn reports whether this search should run the two-phase
// coarse-filter loop over a leaf's items (ISSUE 6): a quantized tier is
// selected, the search is not being traced (the trace schema records exact
// per-entry distances, which the coarse pass deliberately never computes),
// and the best-list is full with a usable threshold (0 <= dk < +Inf: an
// unbounded dk can prune nothing, and a negative one — possible only with
// degenerate data spheres — would reintroduce the mixed-sign cancellation
// the select kernels' threshold arithmetic excludes; see vec/quant.go).
// Child bounds always take the exact streaming kernel: a node-level coarse
// pass pruned ~20% of children where the leaf pass prunes ~99% of items, and
// cost more than the exact kernel it replaced.
func (sc *scratch) quantOn(dk float64) bool {
	return sc.quant != packed.TierNone && sc.tb == nil && dk >= 0 && !math.IsInf(dk, 1)
}

// packedNodeID is the trace identity of a packed node: its dense id shifted
// by one, because 0 means "no identity" in the span schema, under the tag of
// the tree being searched — node ids are dense per tree, and a forest search
// records every tree it visits into one trace.
func (sc *scratch) packedNodeID(n int32) uint64 { return sc.treeTag | (uint64(n) + 1) }

// offerLeafPacked streams one DistBlock pass over leaf n's packed item
// centers and offers every item off it.
//
// The pass exploits the SoA layout twice. First, one sqrt per item instead
// of the pointer path's two (MaxDist + MinDist). Second — the big one — a
// Case-3 item (minDist > distk, Lemma 9) is recognised from the distance
// and radius blocks alone, so the Item struct behind it is never loaded:
// the prune touches only two sequential float64 arrays. The condition is
// exactly offerDist's Case 3 (minDist > dk with dk ≥ 0 implies the raw and
// clamped minDist agree, and maxDist ≥ minDist > dk rules out Cases 1–2),
// and a Case-3 offer changes no list state, so stats and results stay
// bit-identical. Traced searches take the plain per-item path, which emits
// the identical ItemPrune spans.
func (sc *scratch) offerLeafPacked(t *packed.Tree, n int32, sq geom.Sphere, l *bestList) int32 {
	items := t.LeafItems(n)
	if l.tb != nil {
		sc.pBuf = growTo(sc.pBuf, len(items))
		t.LeafDists(n, sq.Center, sc.pBuf)
		for i := range items {
			l.offerDist(&items[i], sc.pBuf[i])
		}
		return int32(len(items))
	}
	radii := t.ItemRadii(n)
	qr := sq.Radius
	dk := l.distK()
	if sc.quantOn(dk) {
		// Two-phase (ISSUE 6): one select pass over the narrow tier drops
		// every item whose lower bound certifies Case 3 against the distk at
		// leaf entry — same Items/Pruned accounting, and neither the exact
		// center block nor a sqrt is ever touched. Survivors replay the
		// exact per-item logic bit for bit (LeafDistAt == DistBlock entry)
		// against the live distk, so list state and Stats match the exact
		// pass: distk only shrinks as items are offered, which keeps the
		// entry-distk coarse decisions valid (they prune a subset of what
		// the live value would).
		sc.qSel = growToI32(sc.qSel, len(items))
		nsel := t.LeafQuantSelect(sc.quant, n, sq, dk, sc.qSel)
		dropped := len(items) - nsel
		sc.qItemPrunes += uint64(dropped)
		sc.qItemExact += uint64(nsel)
		l.stats.Items += dropped
		l.stats.Pruned += dropped
		for _, i := range sc.qSel[:nsel] {
			dist := t.LeafDistAt(n, i, sq.Center)
			if dist-radii[i]-qr > dk {
				l.stats.Items++
				l.stats.Pruned++
				continue
			}
			l.offerDist(&items[i], dist)
			dk = l.distK()
		}
		return int32(len(items))
	}
	sc.pBuf = growTo(sc.pBuf, len(items))
	t.LeafDists(n, sq.Center, sc.pBuf)
	for i := range items {
		dist := sc.pBuf[i]
		if dist-radii[i]-qr > dk {
			l.stats.Items++
			l.stats.Pruned++
			continue
		}
		l.offerDist(&items[i], dist)
		dk = l.distK()
	}
	return int32(len(items))
}

// searchDFPacked is searchDF over a frozen snapshot: node ids instead of
// cursors, and the per-child MinDist loop replaced by one streaming kernel
// call over the node's packed bounds. The keys it sorts and prunes on are
// ChildMinDists' — over a sphere-bounded tree max(sphere, box), taken
// against distk as n is entered; distk only shrinks, so a child put beyond
// it stays there. nd is n's own key, known from the parent's pass
// (RootMinDist at the root).
func (sc *scratch) searchDFPacked(t *packed.Tree, n int32, nd float64, sq geom.Sphere, l *bestList) {
	l.stats.NodesVisited++
	sp := int32(-1)
	if tb := sc.tb; tb != nil {
		sp = tb.StartNode(sc.packedNodeID(n), nd)
	}
	if t.IsLeaf(n) {
		scanned := sc.offerLeafPacked(t, n, sq, l)
		if sc.tb != nil {
			sc.tb.EndNode(sp, 0, scanned)
		}
		return
	}
	base := len(sc.pStack)
	kids := t.Children(n)
	nc := len(kids)
	sc.dfExpansions += uint64(nc)
	sc.pStack = append(sc.pStack, kids...)
	sc.pDists = growTo(sc.pDists, base+nc)
	sc.boxPrunes += uint64(t.ChildMinDists(n, sq, l.distK(), sc.pDists[base:base+nc]))
	sortByDist(sc.pStack[base:base+nc], sc.pDists[base:base+nc])
	for i := 0; i < nc; i++ {
		if sc.pDists[base+i] > l.distK() {
			if tb := sc.tb; tb != nil {
				for j := i; j < nc; j++ {
					tb.NodePrune(sc.packedNodeID(sc.pStack[base+j]), sc.pDists[base+j])
				}
			}
			break
		}
		sc.searchDFPacked(t, sc.pStack[base+i], sc.pDists[base+i], sq, l)
	}
	sc.pStack = sc.pStack[:base]
	sc.pDists = sc.pDists[:base]
	if sc.tb != nil {
		sc.tb.EndNode(sp, int32(nc), 0)
	}
}

// searchHSPacked is searchHS over a frozen snapshot. Children are scored by
// one kernel pass per expanded node and pushed under the hoisted distk
// bound. Over a rectangle-bounded tree the keys are the pointer path's bit
// for bit and the heap is the same shape, so the pop order is too; over a
// sphere-bounded tree the keys are max(sphere, box), fewer children are
// pushed and the frontier is ordered by the tighter bound. rootDist is the
// root's MinDist to the query, as for searchDFPacked.
func (sc *scratch) searchHSPacked(t *packed.Tree, rootDist float64, sq geom.Sphere, l *bestList) {
	h := &sc.packedHeap
	h.push(t.Root(), rootDist)
	for h.len() > 0 {
		n, dist := h.pop()
		if dist > l.distK() {
			if tb := sc.tb; tb != nil {
				tb.NodePrune(sc.packedNodeID(n), dist)
			}
			return
		}
		l.stats.NodesVisited++
		sp := int32(-1)
		if tb := sc.tb; tb != nil {
			sp = tb.StartNode(sc.packedNodeID(n), dist)
		}
		if t.IsLeaf(n) {
			scanned := sc.offerLeafPacked(t, n, sq, l)
			if sc.tb != nil {
				sc.tb.EndNode(sp, 0, scanned)
			}
			continue
		}
		// Invariant: distk cannot change inside this loop — it only shrinks
		// when an item is offered, and this loop only pushes child nodes.
		dk := l.distK()
		kids := t.Children(n)
		sc.pBuf = growTo(sc.pBuf, len(kids))
		sc.boxPrunes += uint64(t.ChildMinDists(n, sq, dk, sc.pBuf))
		for i, c := range kids {
			if d := sc.pBuf[i]; d <= dk {
				h.push(c, d)
			} else if tb := sc.tb; tb != nil {
				tb.NodePrune(sc.packedNodeID(c), d)
			}
		}
		if sc.tb != nil {
			sc.tb.EndNode(sp, int32(len(kids)), 0)
		}
	}
}
