package knn

import (
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
)

// SearchForest answers the Definition 2 kNN query over the union of the
// trees — the shards of one partitioned dataset — with ONE best-known list,
// on the calling goroutine. The trees are ordered by their root's MinDist to
// the query (packed.Tree.RootOrder: ties at 0 go to the nearest-centred) and
// searched nearest first. The list carries over, so from a tree's first leaf
// the Case 3 and coarse-tier prunes cut against the distK of everything seen
// so far, and a tree whose root bound exceeds the running distK is not
// opened at all: every item below has MinDist ≥ the root's > distK ≥ the
// final distK, which is Lemma 9's proof that the final Sk dominates it (and
// it cannot be among the k smallest MaxDist either). The criterion — the
// paper's Hyperbola, the only one a served search uses — then runs once per
// surviving candidate against the final Sk, so the answer —
// ascending (MaxDist, ID) — is the one a single-index Search over the same
// items gives, and Stats is a function of the query alone.
//
// visited is the number of trees opened. ex, when non-nil, asks for the
// search's explain: it receives the per-tree spans and the filter span —
// two clock reads per opened tree and one slice, whatever the obs gate says.
// The search adds its work to the knn.* counters but is not itself counted
// or timed: its caller (shard.Index.Search) records one
// shard.search_latency sample. It records nothing into the Slow ring; the
// HTTP middleware that served it does (DESIGN.md §8, §9).
func SearchForest(trees []*packed.Tree, sq geom.Sphere, k int, ex *obs.Forest) (res Result, visited int) {
	sc := getScratch()
	defer putScratch(sc)
	res.K = k
	l := sc.begin(sq, k, dominance.Hyperbola{}, &res.Stats)
	if visited = sc.walkForest(trees, sq, l, ex); visited == 0 {
		return res, 0
	}

	var t0 time.Time
	if ex != nil {
		ex.Merge.Candidates = l.held()
		t0 = time.Now()
	}
	res.Items = l.finish()
	if ex != nil {
		ex.Merge.LatencyNs = max(time.Since(t0).Nanoseconds(), 1)
		ex.Merge.Results = len(res.Items)
		ex.Merge.Pruned = ex.Merge.Candidates - ex.Merge.Results
	}
	sc.flushObs(&res.Stats)
	return res, visited
}

// walkForest is the one packed traversal: it walks the trees nearest root
// first into l, which begin armed, skipping every tree whose root bound is
// beyond the running distK, and returns the number of trees it opened — 0
// when every tree is empty, and l then holds nothing. Each opened tree is
// walked depth-first (searchDFPacked), whatever Algorithm a caller of Search
// names: the best-first walk's answers are the same, and its frontier cost
// more than the branch order it bought (DESIGN.md §11). Search walks a bare
// snapshot as a forest of one, so for a single tree this is the plain DF
// traversal of Section 6. ex is SearchForest's: nil, or the explain the
// per-tree spans go into.
func (sc *scratch) walkForest(trees []*packed.Tree, sq geom.Sphere, l *bestList, ex *obs.Forest) (visited int) {
	sc.quant = QuantModeNow() // once: a concurrent SetQuantMode cannot split the walk
	if ex != nil {
		ex.Shards = make([]obs.ShardSpan, len(trees))
	}

	// The visit order lives in the bottom frame of the depth-first arena:
	// searchDFPacked stacks its child frames above whatever is there.
	for i, t := range trees {
		if ex != nil {
			ex.Shards[i] = obs.ShardSpan{Shard: i, Items: t.Len(), Order: -1, Skipped: true}
		}
		if !t.Empty() {
			sc.pStack = append(sc.pStack, int32(i))
			sc.pDists = append(sc.pDists, t.RootOrder(sq))
		}
	}
	order, keys := sc.pStack, sc.pDists
	sortByDist(order, keys)

	for _, i := range order {
		// A positive key is the root's MinDist; the others only ordered the
		// trees whose bounds touch the query, at MinDist 0.
		rootDist := keys[visited] // visited trees are a prefix of the order
		if !(rootDist > 0) {
			rootDist = 0
		}
		if rootDist > l.distK() {
			break // and every later tree: the order is ascending, distK only shrinks
		}
		var sp *obs.ShardSpan
		var t0 time.Time
		held, coarse, before := l.held(), sc.qItemPrunes, *l.stats
		if ex != nil {
			sp = &ex.Shards[i]
			sp.Order, sp.Skipped = visited, false
			sp.BoundObserved = obs.BoundValue(l.distK())
			t0 = time.Now()
		}
		t := trees[i]
		sc.searchDFPacked(t, t.Root(), sq, l)
		visited++
		if sp != nil {
			sp.LatencyNs = max(time.Since(t0).Nanoseconds(), 1)
			sp.Candidates = l.held() - held
			sp.NodesVisited = l.stats.NodesVisited - before.NodesVisited
			sp.ItemsScanned = l.stats.Items - before.Items
			sp.CoarsePrunes = sc.qItemPrunes - coarse
			sp.BoundPublished = obs.BoundValue(l.distK())
		}
	}
	return visited
}

// held is the number of candidates the list holds for the final filter.
func (l *bestList) held() int { return len(l.top.es) + len(l.buf) }
