package knn

import (
	"fmt"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/mtree"
	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
	"hyperdom/internal/rtree"
	"hyperdom/internal/sstree"
	"hyperdom/internal/tree"
)

// Algorithm selects the traversal strategy of a pointer index. A packed
// snapshot has one walk, depth-first, whichever is named.
type Algorithm int

const (
	// DF is the depth-first branch-and-bound traversal of Roussopoulos,
	// Kelley and Vincent (SIGMOD 1995) adapted to hypersphere nodes.
	DF Algorithm = iota
	// HS is the best-first (priority queue on MinDist) traversal of
	// Hjaltason and Samet (TODS 1999).
	HS
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case DF:
		return "DF"
	case HS:
		return "HS"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Index is what the searches traverse, and exactly what it wraps: a
// pointer tree of any substrate (WrapSSTree, WrapMTree, WrapRTree), whose
// cursors the Section 6 reference walk follows, or a packed snapshot of an
// SS-tree (WrapPacked), which the serving kernel streams over. Exactly one
// of t and p is set.
type Index struct {
	t *tree.Tree
	p *packed.Tree
}

// substrate attributes the index's searches in the telemetry. A bare
// snapshot is an SS-tree's, the only tree that freezes.
func (idx Index) substrate() tree.Substrate {
	if idx.p != nil {
		return tree.SSTree
	}
	return idx.t.Substrate()
}

// Search answers the kNN query of Definition 2 over an index using the
// given traversal strategy and dominance criterion. A pointer tree is
// walked by its cursors, depth-first or best-first as algo says
// (searchDF/searchHS, the Section 6 reference the packed kernel's answers
// are compared against); a packed snapshot is walked by walkForest as a
// forest of one, always depth-first (searchDFPacked, the serving kernel),
// whatever algo names — both strategies give the same answer. Either way the traversal runs out of a pooled scratch arena and
// performs no steady-state heap allocation beyond the returned answer
// slice.
func Search(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm) Result {
	sc := getScratch()
	defer putScratch(sc)
	return sc.search(idx, sq, k, crit, algo)
}

// Searcher owns one scratch arena for repeated searches from a single
// goroutine — what each worker of a batch (package engine) searches
// through. It skips the pool round-trip Search pays per query; otherwise
// the two are identical. Not safe for concurrent use.
type Searcher struct{ sc *scratch }

// NewSearcher takes a scratch arena out of the pool.
func NewSearcher() *Searcher { return &Searcher{sc: getScratch()} }

// Search answers one query out of the Searcher's arena; see Search.
func (s *Searcher) Search(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm) Result {
	return s.sc.search(idx, sq, k, crit, algo)
}

// Close returns the arena to the pool. The Searcher must not be used after.
func (s *Searcher) Close() {
	if s.sc != nil {
		putScratch(s.sc)
		s.sc = nil
	}
}

func (sc *scratch) search(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm) Result {
	res := Result{K: k}
	l, ok := sc.traverse(idx, sq, k, crit, algo, &res.Stats)
	if !ok {
		return res
	}
	res.Items = l.finish()
	if obs.On() {
		idx.count()
		sc.flushObs(&res.Stats)
	}
	return res
}

// begin arms the scratch for one search: the best-known list reset for
// (sq, k, crit).
func (sc *scratch) begin(sq geom.Sphere, k int, crit dominance.Criterion, stats *Stats) *bestList {
	if k <= 0 {
		panic(fmt.Sprintf("knn: k = %d", k))
	}
	sc.resetTraversal()
	l := &sc.list
	l.reset(sq, k, crit, stats)
	return l
}

// traverse runs the index traversal shared by Search (finish() filter) and
// SearchCandidates (raw candidate stream): the packed or the pointer walk,
// whichever the index wraps, with the best-known list filled in. ok=false
// means the index was empty: the list holds nothing, and callers skip both
// the answer pass and the obs flush.
func (sc *scratch) traverse(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm, stats *Stats) (l *bestList, ok bool) {
	l = sc.begin(sq, k, crit, stats)
	if idx.p != nil {
		forest := [1]*packed.Tree{idx.p}
		return l, sc.walkForest(forest[:], sq, l, nil) > 0
	}
	root, rok := idx.t.Root()
	if !rok {
		return nil, false
	}
	switch algo {
	case DF:
		sc.searchDF(root, sq, l)
	case HS:
		sc.searchHS(root, sq, l)
	default:
		panic(fmt.Sprintf("knn: unknown algorithm %d", int(algo)))
	}
	return l, true
}

// searchDF visits children in ascending MinDist order, pruning subtrees
// whose MinDist to the query exceeds distk (every item below would fall to
// Case 3). Child cursors and distance keys live in the scratch arena,
// frame-stacked across recursion levels.
func (sc *scratch) searchDF(n tree.Cursor, sq geom.Sphere, l *bestList) {
	l.stats.NodesVisited++
	if n.IsLeaf() {
		items := n.Items()
		for i := range items {
			l.offer(&items[i])
		}
		return
	}
	base := len(sc.stack)
	nc := n.NumChildren()
	for i := 0; i < nc; i++ {
		c := n.Child(i)
		sc.stack = append(sc.stack, c)
		sc.dists = append(sc.dists, c.MinDist(sq))
	}
	sc.dfExpansions += uint64(nc)
	sortByDist(sc.stack[base:base+nc], sc.dists[base:base+nc])
	for i := 0; i < nc; i++ {
		if sc.dists[base+i] > l.distK() {
			// Every deeper item has MinDist ≥ this bound: Case 3 territory.
			break
		}
		sc.searchDF(sc.stack[base+i], sq, l)
	}
	clear(sc.stack[base : base+nc]) // drop node refs before the frame pops
	sc.stack = sc.stack[:base]
	sc.dists = sc.dists[:base]
}

// searchHS pops nodes in globally ascending MinDist order; once the nearest
// unexplored node is beyond distk the traversal is complete, because distk
// never increases.
func (sc *scratch) searchHS(root tree.Cursor, sq geom.Sphere, l *bestList) {
	h := &sc.heap
	h.push(root, root.MinDist(sq))
	for h.len() > 0 {
		n, dist := h.pop()
		if dist > l.distK() {
			return
		}
		l.stats.NodesVisited++
		if n.IsLeaf() {
			items := n.Items()
			for i := range items {
				l.offer(&items[i])
			}
			continue
		}
		// Invariant: distk cannot change inside this loop — it only shrinks
		// when an item is offered to the list, and expanding an internal
		// node only pushes child nodes. Hoisting the bound out of the loop
		// saves a distK() call per child.
		dk := l.distK()
		for i, m := 0, n.NumChildren(); i < m; i++ {
			c := n.Child(i)
			if d := c.MinDist(sq); d <= dk {
				h.push(c, d)
			}
		}
	}
}

// WrapSSTree adapts an SS-tree for Search.
func WrapSSTree(t *sstree.Tree) Index { return Index{t: &t.Tree} }

// WrapMTree adapts an M-tree for Search.
func WrapMTree(t *mtree.Tree) Index { return Index{t: &t.Tree} }

// WrapRTree adapts an R-tree for Search — the rectangle-bounded baseline
// for the sphere-vs-rectangle index comparison.
func WrapRTree(t *rtree.Tree) Index { return Index{t: &t.Tree} }

// WrapPacked adapts a packed snapshot for Search: an SS-tree's Freeze, or
// one loaded from a snapshot file (packed.Open), which has no pointer tree
// behind it. Its searches return the answers a search of the pointer tree
// it was frozen from returns under Hyperbola, Exact and MinMax, off fewer
// nodes and items (DESIGN.md §11).
func WrapPacked(t *packed.Tree) Index { return Index{p: t} }
