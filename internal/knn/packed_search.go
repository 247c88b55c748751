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

// quantNodePhase gates the node-level (child bounds) coarse pass. Measured
// on the 10k-item bench fixture, only ~20% of children prune at node level
// (vs ~99% of leaf items): the narrow select pass plus per-survivor exact
// re-scoring costs more than the streaming exact kernel it replaces, so the
// traversals run the coarse filter at leaf granularity only. The node
// kernels and accessors stay built and tested should a workload with
// heavier node-level pruning want them back.
const quantNodePhase = false

// quantOn reports whether this search should run the two-phase
// coarse-filter loops (ISSUE 6): a quantized tier is selected, the search
// is not being traced (the trace schema records exact per-entry distances,
// which the coarse pass deliberately never computes), and the best-list is
// full with a usable threshold (0 <= dk < +Inf: an unbounded dk can prune
// nothing, and a negative one — possible only with degenerate data spheres
// — would reintroduce the mixed-sign cancellation the select kernels'
// threshold arithmetic excludes; see vec/quant.go).
func (sc *scratch) quantOn(dk float64) bool {
	return sc.quant != packed.TierNone && sc.tb == nil && dk >= 0 && !math.IsInf(dk, 1)
}

// frozenOf returns the substrate's cached packed snapshot, or nil when the
// index is not one of the three tree adapters or has not been frozen (or
// was mutated since — the substrates auto-thaw).
func frozenOf(idx Index) *packed.Tree {
	switch a := idx.(type) {
	case ssAdapter:
		if pt, ok := a.t.Frozen(); ok {
			return pt
		}
	case mAdapter:
		if pt, ok := a.t.Frozen(); ok {
			return pt
		}
	case rAdapter:
		if pt, ok := a.t.Frozen(); ok {
			return pt
		}
	case packedAdapter:
		return a.t
	}
	return nil
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
		for i, it := range items {
			l.offerDist(it, sc.pBuf[i])
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
			l.offerDist(items[i], dist)
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
		l.offerDist(items[i], dist)
		dk = l.distK()
	}
	return int32(len(items))
}

// searchDFPacked is searchDF over a frozen snapshot: node ids instead of
// cursors, and the per-child MinDist loop replaced by one streaming kernel
// call over the node's packed bounds. nd is n's own MinDist to the query,
// known from the parent's pass (RootMinDist at the root).
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
	// Two-phase expansion (ISSUE 6): score every child off the narrow tier
	// first and compute the exact mindist only for children whose bound
	// does not already exceed distk. Dropped children are exactly the ones
	// the exact path would never recurse into: their exact mindist is >= the
	// bound > distk-at-expansion >= distk at any later point of this visit
	// loop (distk only shrinks), so the sorted visit sequence, the break
	// point and every Stats field are unchanged. Restricted to fan-outs the
	// stable insertion sort handles (<= 48): subsetting survivors under the
	// heapsort fallback could reorder equal-distance children relative to
	// the pointer path's full-array sort.
	if quantNodePhase && sc.quantOn(l.distK()) && nc <= 48 {
		dk := l.distK()
		sc.qSel = growToI32(sc.qSel, nc)
		nsel := t.ChildQuantSelect(sc.quant, n, sq, dk, sc.qSel)
		sc.qNodePrunes += uint64(nc - nsel)
		sc.qNodeExact += uint64(nsel)
		for _, i := range sc.qSel[:nsel] {
			sc.pStack = append(sc.pStack, kids[i])
			sc.pDists = append(sc.pDists, t.ChildMinDistAt(n, i, sq))
		}
		nc = len(sc.pStack) - base
	} else {
		sc.pStack = append(sc.pStack, kids...)
		sc.pDists = growTo(sc.pDists, base+nc)
		t.ChildMinDists(n, sq, sc.pDists[base:base+nc])
	}
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

// pHeap is the best-first frontier over packed node ids, mirroring ssHeap.
// Unlike its cursor-based siblings it stores each (dist, id) pair in one
// struct: a sift step then touches one cache line per level instead of two
// (the parallel-slice layout showed up as pure memory stalls in profiles),
// and since the comparisons and swap structure are unchanged the pop order
// — and with it the packed/pointer bit-identity — is too.
type pHeap struct {
	es []pHeapEntry

	// Scratch-local observability tallies, as in nodeHeap.
	pushes, pops, grown uint64
}

type pHeapEntry struct {
	dist float64
	id   int32
}

func (h *pHeap) len() int { return len(h.es) }

func (h *pHeap) push(n int32, d float64) {
	h.pushes++
	if len(h.es) == cap(h.es) {
		h.grown++
	}
	h.es = append(h.es, pHeapEntry{d, n})
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.es[p].dist <= h.es[i].dist {
			break
		}
		h.es[p], h.es[i] = h.es[i], h.es[p]
		i = p
	}
}

func (h *pHeap) pop() (int32, float64) {
	h.pops++
	e := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es = h.es[:last]
	h.siftDown(0)
	return e.id, e.dist
}

func (h *pHeap) siftDown(i int) {
	es := h.es
	for {
		c := 2*i + 1
		if c >= len(es) {
			return
		}
		if c+1 < len(es) && es[c+1].dist < es[c].dist {
			c++
		}
		if es[i].dist <= es[c].dist {
			return
		}
		es[i], es[c] = es[c], es[i]
		i = c
	}
}

// searchHSPacked is searchHS over a frozen snapshot. Children are scored by
// one kernel pass per expanded node and pushed under the hoisted distk
// bound; the pop order is identical to the pointer path because the keys
// are bit-identical and the heap is the same shape. rootDist is the root's
// MinDist to the query, as for searchDFPacked.
func (sc *scratch) searchHSPacked(t *packed.Tree, rootDist float64, sq geom.Sphere, l *bestList) {
	h := &sc.pHeap
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
		if quantNodePhase && sc.quantOn(dk) {
			// Two-phase (ISSUE 6): a narrow bound beyond distk certifies
			// the exact mindist is too, so the child is skipped without
			// touching the exact block — the pointer path would not have
			// pushed it either. Survivors are scored exactly and pushed in
			// the same index order as the exact pass, so the heap stays
			// bit-identical.
			sc.qSel = growToI32(sc.qSel, len(kids))
			nsel := t.ChildQuantSelect(sc.quant, n, sq, dk, sc.qSel)
			sc.qNodePrunes += uint64(len(kids) - nsel)
			sc.qNodeExact += uint64(nsel)
			for _, i := range sc.qSel[:nsel] {
				if d := t.ChildMinDistAt(n, i, sq); d <= dk {
					h.push(kids[i], d)
				}
			}
			continue
		}
		sc.pBuf = growTo(sc.pBuf, len(kids))
		t.ChildMinDists(n, sq, sc.pBuf)
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
