package knn

import "hyperdom/internal/obs"

// Traversal-level observability counters (ISSUE 2). The per-query figures
// (node visits, criterion checks, prunes) accumulate in the per-search Stats
// struct; every search drains its Stats — plus the traversal internals Stats
// never carried: depth-first child expansions and the children a box bound
// pruned — into these process-wide counters, one batch of atomic adds per
// search. The hot per-node increments are plain field adds on scratch-owned
// structs. A search is not itself counted: the served search that runs it
// is, by shard.search_latency, and no search reads a clock for the registry
// (DESIGN.md §8).
var (
	obsNodesVisited = obs.New("knn.nodes_visited")
	obsItemsScanned = obs.New("knn.items_scanned")
	obsDomChecks    = obs.New("knn.dom_checks")
	obsPruned       = obs.New("knn.pruned")
	obsDFExpansions = obs.New("knn.df_child_expansions")
	obsBoxPrunes    = obs.New("knn.box_prunes")
)

// Quantized coarse-filter counters (ISSUE 6): how often the narrow-tier
// pass settled a leaf item (coarse prune) versus deferring to the exact
// float64 block (exact fallback). prunes/(prunes+fallbacks) is the coarse
// hit-rate the bench reports.
var (
	obsQuantItemPrunes = obs.New("packed.quant.item_coarse_prunes")
	obsQuantItemExact  = obs.New("packed.quant.item_exact_fallbacks")
)

// flushStats adds one query's Stats to the global counters.
func flushStats(st *Stats) {
	obsNodesVisited.Add(uint64(st.NodesVisited))
	obsItemsScanned.Add(uint64(st.Items))
	obsDomChecks.Add(uint64(st.DomChecks))
	obsPruned.Add(uint64(st.Pruned))
}

// flushObs drains one finished search's work into the global counters —
// which drop it while the obs gate is off — and zeroes the scratch-local
// tallies. Every finished search calls it.
func (sc *scratch) flushObs(st *Stats) {
	flushStats(st)

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
// put-back after a search that did not finish) has accounted for.
func (sc *scratch) clearObsTallies() {
	sc.dfExpansions = 0
	sc.qItemPrunes, sc.qItemExact, sc.boxPrunes = 0, 0, 0
}
