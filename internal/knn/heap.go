package knn

// distHeap is the best-first frontier of both traversals: a hand-rolled
// min-heap of nodes keyed by MinDist to the query, instantiated at IndexNode
// (searchHS) and at packed node ids (searchHSPacked). It deliberately does
// not implement container/heap: the standard interface forces every pushed
// entry through an `any` box, which allocated on each node visit.
//
// Each (dist, node) pair is one struct, so a sift step touches one cache
// line per level instead of the two a parallel-slice layout costs. Both
// instantiations run the same comparisons and swaps, so with bit-identical
// keys they pop in the same order — which is what keeps the packed
// traversal's Stats equal to the reference's over a rectangle-bounded tree
// (over a sphere-bounded one the packed keys are tighter; packed_search.go).
type distHeap[N any] struct {
	es []distEntry[N]

	// Scratch-local observability tallies (plain adds; drained per search
	// by scratch.flushObs).
	pushes, pops, grown uint64
}

type distEntry[N any] struct {
	dist float64
	node N
}

func (h *distHeap[N]) len() int { return len(h.es) }

func (h *distHeap[N]) push(n N, d float64) {
	h.pushes++
	if len(h.es) == cap(h.es) {
		h.grown++
	}
	h.es = append(h.es, distEntry[N]{d, n})
	es := h.es
	i := len(es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if es[p].dist <= es[i].dist {
			break
		}
		es[p], es[i] = es[i], es[p]
		i = p
	}
}

// pop removes and returns the nearest node. The vacated slot is zeroed
// before the slice shrinks: the backing array survives in the scratch pool,
// and a live IndexNode there would retain an entire abandoned index.
func (h *distHeap[N]) pop() (N, float64) {
	h.pops++
	e := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es[last] = distEntry[N]{}
	h.es = h.es[:last]
	es := h.es
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(es) {
			break
		}
		if c+1 < len(es) && es[c+1].dist < es[c].dist {
			c++
		}
		if es[i].dist <= es[c].dist {
			break
		}
		es[i], es[c] = es[c], es[i]
		i = c
	}
	return e.node, e.dist
}
