package knn

import (
	"hyperdom/internal/geom"
	"hyperdom/internal/packed"
)

// offerLeafPacked decides every item of leaf n: Lemma 9 drops it (Case 3,
// MinDist > distk) or it is offered to the list.
//
// The leaf's select (packed.Tree.LeafQuantSelect) first names the items
// left to decide, in ascending order: when the search's tier can prune
// against the distk at leaf entry, the items whose narrow bound does not
// certify Case 3 (the others are counted as pruned unseen: neither the
// exact center block nor a sqrt is touched), otherwise every item. One loop
// then replays that list. It takes one sqrt per item where the pointer path
// takes two (MaxDist and MinDist derive from the one center distance), and
// recognises a Case 3 item from the distance and radius alone, so the Item
// struct behind it is never loaded. That pre-check is exactly offerDist's
// Case 3 (minDist > dk with dk ≥ 0 implies the raw and clamped minDist
// agree, and maxDist ≥ minDist > dk rules out Cases 1–2), and a Case 3
// offer changes no list state. distk only shrinks as items are offered,
// which keeps the entry-distk coarse drops valid against the live one. So
// list state and Stats are those of offering every item in order, whatever
// the tier.
func (sc *scratch) offerLeafPacked(t *packed.Tree, n int32, sq geom.Sphere, l *bestList) {
	items := t.LeafItems(n)
	radii := t.ItemRadii(n)
	qr := sq.Radius
	dk := l.distK()
	sc.qSel = growTo(sc.qSel, len(items))
	nsel, ran := t.LeafQuantSelect(sc.quant, n, sq, dk, sc.qSel)
	dropped := len(items) - nsel
	l.stats.Items += dropped
	l.stats.Pruned += dropped
	sc.qItemPrunes += uint64(dropped)
	if ran {
		sc.qItemExact += uint64(nsel)
	}
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
}

// searchDFPacked is searchDF over a frozen snapshot: node ids instead of
// cursors, and the per-child MinDist loop replaced by one streaming kernel
// call over the node's packed bounds. The keys it sorts and prunes on are
// ChildMinDists' — over a sphere-bounded tree max(sphere, box), taken
// against distk as n is entered; distk only shrinks, so a child put beyond
// it stays there.
func (sc *scratch) searchDFPacked(t *packed.Tree, n int32, sq geom.Sphere, l *bestList) {
	l.stats.NodesVisited++
	if t.IsLeaf(n) {
		sc.offerLeafPacked(t, n, sq, l)
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
			break
		}
		sc.searchDFPacked(t, sc.pStack[base+i], sq, l)
	}
	sc.pStack = sc.pStack[:base]
	sc.pDists = sc.pDists[:base]
}
