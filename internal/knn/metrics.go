package knn

import (
	"hyperdom/internal/obs"
	"hyperdom/internal/tree"
)

// Traversal-level observability counters (ISSUE 2). The per-query figures
// (node visits, criterion checks, prunes) keep accumulating in the
// per-search Stats struct exactly as before; on top of that, every search
// drains its Stats — plus the traversal internals Stats never carried:
// heap pushes/pops, heap backing-array growth, depth-first child
// expansions and the children a box bound pruned — into these process-wide
// counters, one batch of atomic adds per search. The hot per-node
// increments are plain field adds on scratch-owned structs.
var (
	obsNodesVisited  = obs.New("knn.nodes_visited")
	obsItemsScanned  = obs.New("knn.items_scanned")
	obsDomChecks     = obs.New("knn.dom_checks")
	obsPruned        = obs.New("knn.pruned")
	obsHeapPushes    = obs.New("knn.heap_pushes")
	obsHeapPops      = obs.New("knn.heap_pops")
	obsHeapGrowth    = obs.New("knn.heap_growth")
	obsDFExpansions  = obs.New("knn.df_child_expansions")
	obsBruteSearches = obs.New("knn.brute_force_searches")
	obsBoxPrunes     = obs.New("knn.box_prunes")
)

// Quantized coarse-filter counters (ISSUE 6): how often the narrow-tier
// pass settled a leaf item (coarse prune) versus deferring to the exact
// float64 block (exact fallback). prunes/(prunes+fallbacks) is the coarse
// hit-rate the bench reports.
var (
	obsQuantItemPrunes = obs.New("packed.quant.item_coarse_prunes")
	obsQuantItemExact  = obs.New("packed.quant.item_exact_fallbacks")
)

// Single-index search counters: one per substrate, indexed by the
// tree.Substrate of the index searched (a packed walk is an SS-tree's), and
// knn.searches.packed for the walks off a frozen snapshot. A forest search
// moves neither: the served search that runs it is counted once, by
// shard.search_latency. No search reads a clock for the registry; its
// callers time it (DESIGN.md §8).
var (
	obsSearchSub    [tree.NumSubstrates]*obs.Counter // knn.searches.<substrate>
	obsSearchPacked = obs.New("knn.searches.packed")
)

func init() {
	for s := range tree.Substrate(tree.NumSubstrates) {
		obsSearchSub[s] = obs.New("knn.searches." + s.String())
	}
}

// count attributes one finished single-index search to its substrate and,
// a snapshot walk, to knn.searches.packed.
func (idx Index) count() {
	obsSearchSub[idx.substrate()].Inc()
	if idx.p != nil {
		obsSearchPacked.Inc()
	}
}

// flushStats adds one query's Stats to the global counters.
func flushStats(st *Stats) {
	obsNodesVisited.Add(uint64(st.NodesVisited))
	obsItemsScanned.Add(uint64(st.Items))
	obsDomChecks.Add(uint64(st.DomChecks))
	obsPruned.Add(uint64(st.Pruned))
}

// flushObs drains one finished search's work into the global counters and
// zeroes the scratch-local tallies. Called once per search when the obs
// gate is on; the scratch tallies still accumulate (cheaply) when it is
// off, so they are also zeroed here to keep a later snapshot from
// attributing old work to a new window.
func (sc *scratch) flushObs(st *Stats) {
	flushStats(st)

	if n := sc.heap.pushes + sc.packedHeap.pushes; n != 0 {
		obsHeapPushes.Add(n)
	}
	if n := sc.heap.pops + sc.packedHeap.pops; n != 0 {
		obsHeapPops.Add(n)
	}
	if n := sc.heap.grown + sc.packedHeap.grown; n != 0 {
		obsHeapGrowth.Add(n)
	}
	if sc.dfExpansions != 0 {
		obsDFExpansions.Add(sc.dfExpansions)
	}
	if sc.qItemPrunes != 0 {
		obsQuantItemPrunes.Add(sc.qItemPrunes)
	}
	if sc.qItemExact != 0 {
		obsQuantItemExact.Add(sc.qItemExact)
	}
	if sc.boxPrunes != 0 {
		obsBoxPrunes.Add(sc.boxPrunes)
	}

	sc.clearObsTallies()

	// The criterion-level events the search's final filter tallied
	// (quartic solves, overlap short-circuits) become visible with the
	// same per-search cadence.
	sc.list.anch.FlushObs()
}

// clearObsTallies zeroes the scratch-local counters a flush (or a pool
// put-back with the gate off) has accounted for.
func (sc *scratch) clearObsTallies() {
	sc.heap.pushes, sc.heap.pops, sc.heap.grown = 0, 0, 0
	sc.packedHeap.pushes, sc.packedHeap.pops, sc.packedHeap.grown = 0, 0, 0
	sc.dfExpansions = 0
	sc.qItemPrunes, sc.qItemExact, sc.boxPrunes = 0, 0, 0
}
