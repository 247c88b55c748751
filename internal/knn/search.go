package knn

import (
	"fmt"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/mtree"
	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
	"hyperdom/internal/rtree"
	"hyperdom/internal/sstree"
	"hyperdom/internal/tree"
)

// Algorithm selects the index traversal strategy.
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

// Index abstracts what the searches traverse. It has two implementations,
// both at the end of this file: a pointer tree of any substrate
// (WrapSSTree, WrapMTree, WrapRTree) and a bare packed snapshot
// (WrapPacked).
type Index interface {
	// RootNode returns the root cursor of the pointer tree, or ok=false
	// for an empty index and for one that has no pointer tree.
	RootNode() (IndexNode, bool)
	// frozen returns the packed snapshot to search instead: the tree's
	// cached Freeze (nil when it was never frozen, or was mutated since —
	// the trees auto-thaw), or the bare snapshot itself.
	frozen() *packed.Tree
	// substrate attributes the index's searches in the telemetry.
	substrate() packed.Substrate
}

// IndexNode is a read-only cursor over one index node.
type IndexNode interface {
	IsLeaf() bool
	// MinDistTo returns a lower bound on the distance from any item in the
	// subtree to the query sphere: 0 when they can intersect, and never
	// more than the true minimum distance. Sphere-bounded nodes (SS-tree,
	// M-tree) return MinDist of their bounding sphere; rectangle-bounded
	// nodes (R-tree) return MinDist of their MBR.
	MinDistTo(q geom.Sphere) float64
	// ChildNodes appends the node's children to dst and returns it. Only
	// valid on internal nodes.
	ChildNodes(dst []IndexNode) []IndexNode
	// NodeItems returns the node's items. Only valid on leaves.
	NodeItems() []Item
}

// Search answers the kNN query of Definition 2 over an index using the
// given traversal strategy and dominance criterion. A frozen index is
// searched off its packed snapshot (searchDFPacked/searchHSPacked, the
// serving kernel); any other goes through the IndexNode interface
// (searchDF/searchHS, the Section 6 reference the packed kernel's answers
// are bit-compared against). Either way the traversal runs out of a pooled
// scratch arena and performs no steady-state heap allocation beyond the
// returned answer slice.
func Search(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm) Result {
	sc := getScratch()
	defer putScratch(sc)
	return sc.search(idx, sq, k, crit, algo)
}

// Searcher owns one scratch arena for repeated searches from a single
// goroutine — the per-worker handle of the batch-query engine (package
// engine). It skips the pool round-trip Search pays per query; otherwise
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
	l, start, ok := sc.traverse(idx, sq, k, crit, algo, &res.Stats)
	if !ok {
		return res
	}
	res.Items = l.finish()
	if obs.On() {
		sc.flushObs(idx.substrate(), algo, k, start, &res.Stats, nil)
	}
	return res
}

// begin arms the scratch for one search: the best-known list reset for
// (sq, k, crit) and, when instrumentation is on, the clock read flushObs
// later settles.
func (sc *scratch) begin(sq geom.Sphere, k int, crit dominance.Criterion, stats *Stats) (l *bestList, start time.Time) {
	if k <= 0 {
		panic(fmt.Sprintf("knn: k = %d", k))
	}
	// One clock read per search when instrumentation is on: the delta feeds
	// the per-(substrate, strategy) latency histogram and the search's
	// obs.Op at the same flush point as the work counters.
	if obs.On() {
		start = time.Now()
	}
	sc.resetTraversal()
	l = &sc.list
	l.reset(sq, k, crit, stats)
	return l, start
}

// searchPacked runs one traversal of a non-empty frozen snapshot into l.
// rootDist is the root's MinDist to the query.
func (sc *scratch) searchPacked(t *packed.Tree, rootDist float64, sq geom.Sphere, algo Algorithm, l *bestList) {
	switch algo {
	case DF:
		sc.searchDFPacked(t, t.Root(), rootDist, sq, l)
	case HS:
		sc.searchHSPacked(t, rootDist, sq, l)
	default:
		panic(fmt.Sprintf("knn: unknown algorithm %d", int(algo)))
	}
}

// stashQuant fixes the quantized tier the packed traversals of this search
// consult: the process-wide mode, read once so a concurrent SetQuantMode
// cannot split one traversal across tiers. A degenerate query radius
// (negative or NaN) takes the exact path outright — the coarse kernels'
// threshold arithmetic assumes all-non-negative terms (see vec/quant.go),
// and such a query is never hot.
func (sc *scratch) stashQuant(sq geom.Sphere) {
	sc.quant = QuantModeNow().tier()
	if !(sq.Radius >= 0) {
		sc.quant = packed.TierNone
	}
}

// traverse runs the index traversal shared by Search (finish() filter) and
// SearchCandidates (raw candidate stream): dispatch to the packed or the
// interface path, with the best-known list filled in and the per-search
// instrumentation armed. ok=false means the index was empty: the list holds
// nothing, and callers skip both the answer pass and the obs flush.
func (sc *scratch) traverse(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm, stats *Stats) (l *bestList, start time.Time, ok bool) {
	l, start = sc.begin(sq, k, crit, stats)
	// A frozen substrate routes to the packed traversal: the same result
	// set off contiguous SoA blocks, from no more nodes and items than the
	// pointer path visits (DESIGN.md §11).
	if pt := idx.frozen(); pt != nil {
		if pt.Empty() {
			return nil, start, false
		}
		sc.stashQuant(sq)
		sc.searchPacked(pt, pt.RootMinDist(sq), sq, algo, l)
		if obs.On() {
			obsSearchPacked.Inc()
		}
		return l, start, true
	}
	root, rok := idx.RootNode()
	if !rok {
		return nil, start, false
	}
	switch algo {
	case DF:
		sc.searchDF(root, sq, l)
	case HS:
		sc.searchHS(root, sq, l)
	default:
		panic(fmt.Sprintf("knn: unknown algorithm %d", int(algo)))
	}
	return l, start, true
}

// searchDF visits children in ascending MinDist order, pruning subtrees
// whose MinDist to the query exceeds distk (every item below would fall to
// Case 3). Child cursors and distance keys live in the scratch arena,
// frame-stacked across recursion levels.
func (sc *scratch) searchDF(n IndexNode, sq geom.Sphere, l *bestList) {
	l.stats.NodesVisited++
	if n.IsLeaf() {
		items := n.NodeItems()
		for i := range items {
			l.offer(&items[i])
		}
		return
	}
	base := len(sc.stack)
	sc.stack = n.ChildNodes(sc.stack)
	nc := len(sc.stack) - base
	sc.dfExpansions += uint64(nc)
	sc.dists = growTo(sc.dists, base+nc)
	for i := 0; i < nc; i++ {
		sc.dists[base+i] = sc.stack[base+i].MinDistTo(sq)
	}
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

// growTo extends s to length n, reusing capacity.
func growTo(s []float64, n int) []float64 {
	if cap(s) < n {
		ns := make([]float64, n, 2*n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

// searchHS pops nodes in globally ascending MinDist order; once the nearest
// unexplored node is beyond distk the traversal is complete, because distk
// never increases.
func (sc *scratch) searchHS(root IndexNode, sq geom.Sphere, l *bestList) {
	h := &sc.heap
	h.push(root, root.MinDistTo(sq))
	for h.len() > 0 {
		n, dist := h.pop()
		if dist > l.distK() {
			return
		}
		l.stats.NodesVisited++
		if n.IsLeaf() {
			items := n.NodeItems()
			for i := range items {
				l.offer(&items[i])
			}
			continue
		}
		base := len(sc.stack)
		sc.stack = n.ChildNodes(sc.stack)
		// Invariant: distk cannot change inside this loop — it only shrinks
		// when an item is offered to the list, and expanding an internal
		// node only pushes child nodes. Hoisting the bound out of the loop
		// saves a distK() call per child.
		dk := l.distK()
		for _, c := range sc.stack[base:] {
			if d := c.MinDistTo(sq); d <= dk {
				h.push(c, d)
			}
		}
		clear(sc.stack[base:])
		sc.stack = sc.stack[:base]
	}
}

// treeAdapter adapts a pointer tree of any substrate to the Index
// interface, and treeNode its one-pointer cursor to IndexNode — boxing it
// does not allocate, and children are read by index, so a pointer search
// allocates nothing per expanded node on any substrate.
type treeAdapter struct{ t *tree.Tree }

// WrapSSTree adapts an SS-tree for Search.
func WrapSSTree(t *sstree.Tree) Index { return treeAdapter{&t.Tree} }

// WrapMTree adapts an M-tree for Search.
func WrapMTree(t *mtree.Tree) Index { return treeAdapter{&t.Tree} }

// WrapRTree adapts an R-tree for Search — the rectangle-bounded baseline
// for the sphere-vs-rectangle index comparison.
func WrapRTree(t *rtree.Tree) Index { return treeAdapter{&t.Tree} }

func (a treeAdapter) RootNode() (IndexNode, bool) {
	root, ok := a.t.Root()
	return treeNode{root}, ok
}

func (a treeAdapter) frozen() *packed.Tree {
	pt, _ := a.t.Frozen()
	return pt
}

func (a treeAdapter) substrate() packed.Substrate { return a.t.Substrate() }

type treeNode struct{ c tree.Cursor }

func (n treeNode) IsLeaf() bool                    { return n.c.IsLeaf() }
func (n treeNode) MinDistTo(q geom.Sphere) float64 { return n.c.MinDist(q) }
func (n treeNode) NodeItems() []Item               { return n.c.Items() }
func (n treeNode) ChildNodes(dst []IndexNode) []IndexNode {
	for i, m := 0, n.c.NumChildren(); i < m; i++ {
		dst = append(dst, treeNode{n.c.Child(i)})
	}
	return dst
}

// packedAdapter serves a packed.Tree directly — typically one loaded from
// a snapshot file (packed.Open), which has no pointer tree behind it.
type packedAdapter struct{ t *packed.Tree }

// WrapPacked adapts a frozen snapshot for Search. Unlike the tree adapter
// there is nothing to thaw: the snapshot is immutable, and searches are
// bit-identical to searches over the (frozen) tree that built it — the
// traversal dispatches on the snapshot, never on its origin.
func WrapPacked(t *packed.Tree) Index { return packedAdapter{t} }

func (a packedAdapter) RootNode() (IndexNode, bool) { return nil, false }
func (a packedAdapter) frozen() *packed.Tree        { return a.t }

// substrate is the one stamped by the tree that froze the snapshot, so
// restart-from-snapshot keeps the metric shape of serve-after-build.
func (a packedAdapter) substrate() packed.Substrate { return a.t.Substrate() }
