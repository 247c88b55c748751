package knn

import (
	"sync"

	"hyperdom/internal/packed"
	"hyperdom/internal/tree"
)

// scratch is the per-search reusable arena: every buffer a traversal needs —
// child frames, distance keys, the best-first heap, and the best-known
// list's candidate storage — lives here and is recycled through a
// sync.Pool, so a steady-state Search performs no heap allocation beyond
// the answer slice it hands to the caller.
//
// The child frames (stack/dists, pStack/pDists) are flat arenas shared by
// all levels of a depth-first recursion: each visit records the current
// length as its frame base, appends its children, and truncates back to the
// base on exit. Appends reuse the retained capacity, so after the first few
// searches the arena never grows.
//
// A scratch is owned by exactly one search at a time; an engine worker holds
// one, through its Searcher, for the length of its batch.
type scratch struct {
	list bestList

	// Reference (pointer-tree) traversal state.
	stack []tree.Cursor         // DF child frames
	dists []float64             // MinDist keys parallel to stack
	heap  distHeap[tree.Cursor] // HS frontier

	// Packed (frozen snapshot) traversal state: dense node ids instead of
	// cursors. Neither holds references, so pooling them needs no clearing.
	pStack []int32
	pDists []float64

	// Leaf-pass state: the tier this search consults (read once at packed
	// dispatch from the process-wide QuantMode), the buffer of item
	// indices the leaf select fills, and the coarse-prune / exact-fallback
	// tallies flushObs drains. Plain values, nothing to clear on pool
	// put-back.
	quant packed.Tier
	qSel  []int32

	qItemPrunes uint64
	qItemExact  uint64

	// boxPrunes tallies the children whose sphere bound was within distk
	// and whose box was not (packed.Tree.ChildMinDists); drained by flushObs.
	boxPrunes uint64

	// dfExpansions tallies children expanded by the depth-first
	// traversals this search (plain add; drained by flushObs).
	dfExpansions uint64
}

// resetTraversal empties the traversal buffers before a search. The DF
// frame arenas unwind themselves, but a best-first search that terminates
// early (nearest frontier node beyond distk) leaves its remaining frontier
// on the heap — the next search on this scratch must not inherit it.
func (sc *scratch) resetTraversal() {
	sc.stack = clearLen(sc.stack)
	sc.dists = sc.dists[:0]
	sc.heap.es = clearLen(sc.heap.es)
	sc.pStack = sc.pStack[:0]
	sc.pDists = sc.pDists[:0]
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns sc to the pool with every reference cleared: a pooled
// scratch may live arbitrarily long, and a single stale tree.Cursor or
// Candidate would otherwise retain an entire index (or its data spheres)
// that the caller has dropped. The node buffers are cleared over their full
// capacity; the best-known list keeps its tail zero and clears by length
// (bestList.release).
func putScratch(sc *scratch) {
	// A finished search flushes its own tallies; this catches those of one
	// that did not finish (it panicked), so a pooled scratch never carries
	// stale work counts into a later measurement window.
	sc.clearObsTallies()
	sc.stack = clearCap(sc.stack)
	sc.dists = sc.dists[:0]
	sc.heap.es = clearCap(sc.heap.es)
	sc.pStack = sc.pStack[:0]
	sc.pDists = sc.pDists[:0]
	sc.list.release()
	scratchPool.Put(sc)
}

// growTo extends s to length n, keeping its contents and reusing capacity.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		ns := make([]T, n, 2*n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

// clearCap zeroes s over its full capacity and returns it with length 0.
func clearCap[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// clearLen zeroes s over its current length and returns it with length 0.
func clearLen[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// sortByDist sorts nodes and their parallel distance keys in tandem by
// ascending distance: insertion sort for the small fan-outs of real trees,
// an in-place heapsort fallback so a pathological fan-out cannot go
// quadratic. Replaces the old sort.Slice call, whose closure and
// reflect-based swapper allocated on every node visit.
func sortByDist[N any](nodes []N, dists []float64) {
	if len(nodes) <= 48 {
		for i := 1; i < len(nodes); i++ {
			n, d := nodes[i], dists[i]
			j := i - 1
			for j >= 0 && dists[j] > d {
				nodes[j+1], dists[j+1] = nodes[j], dists[j]
				j--
			}
			nodes[j+1], dists[j+1] = n, d
		}
		return
	}
	// Heapsort: build a max-heap, then repeatedly swap the root out.
	for i := len(nodes)/2 - 1; i >= 0; i-- {
		siftDownMax(nodes, dists, i, len(nodes))
	}
	for end := len(nodes) - 1; end > 0; end-- {
		nodes[0], nodes[end] = nodes[end], nodes[0]
		dists[0], dists[end] = dists[end], dists[0]
		siftDownMax(nodes, dists, 0, end)
	}
}

func siftDownMax[N any](nodes []N, dists []float64, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && dists[child+1] > dists[child] {
			child++
		}
		if dists[root] >= dists[child] {
			return
		}
		nodes[root], nodes[child] = nodes[child], nodes[root]
		dists[root], dists[child] = dists[child], dists[root]
		root = child
	}
}
