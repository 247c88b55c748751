package knn

import (
	"fmt"
	"time"

	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
)

// Traversal-level observability counters (ISSUE 2). The per-query figures
// (node visits, criterion checks, prunes) keep accumulating in the
// per-search Stats struct exactly as before; on top of that, every search
// drains its Stats — plus the traversal internals Stats never carried:
// heap pushes/pops, heap backing-array growth and depth-first child
// expansions — into these process-wide counters, one batch of atomic adds
// per search. The hot per-node increments are plain field adds on
// scratch-owned structs.
var (
	obsSearches      = obs.New("knn.searches")
	obsNodesVisited  = obs.New("knn.nodes_visited")
	obsItemsScanned  = obs.New("knn.items_scanned")
	obsDomChecks     = obs.New("knn.dom_checks")
	obsPruned        = obs.New("knn.pruned")
	obsHeapPushes    = obs.New("knn.heap_pushes")
	obsHeapPops      = obs.New("knn.heap_pops")
	obsHeapGrowth    = obs.New("knn.heap_growth")
	obsDFExpansions  = obs.New("knn.df_child_expansions")
	obsBatches       = obs.New("knn.batches")
	obsBatchQueries  = obs.New("knn.batch_queries")
	obsBruteSearches = obs.New("knn.brute_force_searches")
)

// Quantized coarse-filter counters (ISSUE 6): how often the narrow-tier
// pass settled a leaf item (coarse prune) versus deferring to the exact
// float64 block (exact fallback). prunes/(prunes+fallbacks) is the coarse
// hit-rate the bench reports.
var (
	obsQuantItemPrunes = obs.New("packed.quant.item_coarse_prunes")
	obsQuantItemExact  = obs.New("packed.quant.item_exact_fallbacks")
)

// substrate indexes the per-substrate search counters, latency histograms
// and flight-record labels.
type substrate uint8

const (
	subSSTree substrate = iota
	subMTree
	subRTree
	subOther
	numSubstrates
)

var substrateNames = [numSubstrates]string{"sstree", "mtree", "rtree", "other"}

// substrateOf attributes an index to its substrate.
func substrateOf(idx Index) substrate {
	switch a := idx.(type) {
	case ssAdapter:
		return subSSTree
	case mAdapter:
		return subMTree
	case rAdapter:
		return subRTree
	case packedAdapter:
		return packedSubstrate(a.t)
	}
	return subOther
}

// packedSubstrate attributes a snapshot to the substrate that froze it, so
// restart-from-snapshot keeps the same metric shape as serve-after-build
// (SubstrateUnknown — pre-stamping files — lands in other).
func packedSubstrate(t *packed.Tree) substrate {
	switch t.Substrate() {
	case packed.SubstrateSSTree:
		return subSSTree
	case packed.SubstrateMTree:
		return subMTree
	case packed.SubstrateRTree:
		return subRTree
	}
	return subOther
}

// Per-search latency histograms (ISSUE 3), one instance per (substrate,
// strategy) pair of the "knn.search_latency" family, plus a brute-force
// instance. Each search records exactly one sample, into the shard its
// pooled scratch arena owns, at the same flush point as the counters.
var (
	obsSearchSub  [numSubstrates]*obs.Counter // knn.searches.<substrate>
	searchLatency [numSubstrates][2]*obs.Histogram
	bruteLatency  = obs.NewHistogram("knn.search_latency", `substrate="brute",algo="scan"`)

	flightSub   [numSubstrates]obs.LabelID
	flightAlgo  [2]obs.LabelID
	flightBrute = obs.FlightLabel("brute")
	flightScan  = obs.FlightLabel("scan")
)

func init() {
	for s := substrate(0); s < numSubstrates; s++ {
		obsSearchSub[s] = obs.New("knn.searches." + substrateNames[s])
		flightSub[s] = obs.FlightLabel(substrateNames[s])
		for _, a := range []Algorithm{DF, HS} {
			searchLatency[s][a] = obs.NewHistogram("knn.search_latency",
				fmt.Sprintf("substrate=%q,algo=%q", substrateNames[s], a.String()))
		}
	}
	flightAlgo[DF] = obs.FlightLabel(DF.String())
	flightAlgo[HS] = obs.FlightLabel(HS.String())
}

// flushStats adds one query's Stats to the global counters.
func flushStats(st *Stats) {
	obsNodesVisited.Add(uint64(st.NodesVisited))
	obsItemsScanned.Add(uint64(st.Items))
	obsDomChecks.Add(uint64(st.DomChecks))
	obsPruned.Add(uint64(st.Pruned))
}

// flushObs drains one finished search into the global counters, records
// its latency into the (substrate, strategy) histogram, offers it to the
// flight recorder, and zeroes the scratch-local tallies. Called once per
// search when the obs gate is on; the scratch tallies still accumulate
// (cheaply) when it is off, so they are also zeroed here to keep a later
// snapshot from attributing old work to a new window. The return value is
// the ID of the span trace this search recorded, 0 when it was not sampled
// — SearchCandidates and SearchForest surface it so request-level traces can
// link to the retained execution trace in /debug/trace.
func (sc *scratch) flushObs(sub substrate, algo Algorithm, k int, start time.Time, st *Stats) (traceID uint64) {
	obsSearches.Inc()
	obsSearchSub[sub].Inc()
	flushStats(st)

	heapPushes := sc.heap.pushes + sc.packedHeap.pushes
	if heapPushes != 0 {
		obsHeapPushes.Add(heapPushes)
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

	if !start.IsZero() {
		lat := time.Since(start).Nanoseconds()
		searchLatency[sub][algo].RecordShard(sc.shard, lat)
		sample := obs.FlightSample{
			WhenUnixNs: start.UnixNano(),
			LatencyNs:  lat,
			Substrate:  flightSub[sub],
			Algo:       flightAlgo[algo],
			K:          k,
			Nodes:      uint64(st.NodesVisited),
			Items:      uint64(st.Items),
			DomChecks:  uint64(st.DomChecks),
			Pruned:     uint64(st.Pruned),
			HeapPushes: heapPushes,
		}
		if sc.tb != nil {
			// Freeze the sampled span tree and hand it to the ring with the
			// counters: a trace is retained exactly as long as its query
			// stays among the FlightSlots slowest (tail sampling).
			sample.Trace = sc.trace.Finish(flightSub[sub], flightAlgo[algo], k, start.UnixNano(), lat)
			sc.tb = nil
			if sample.Trace != nil {
				traceID = sample.Trace.ID
			}
		}
		obs.Flight.Record(sample)
	}
	sc.clearObsTallies()

	// The criterion-level events the search's final filter tallied
	// (quartic solves, overlap short-circuits) become visible with the
	// same per-search cadence.
	sc.list.anch.FlushObs()
	return traceID
}

// clearObsTallies zeroes the scratch-local counters a flush (or a pool
// put-back with the gate off) has accounted for.
func (sc *scratch) clearObsTallies() {
	sc.heap.pushes, sc.heap.pops, sc.heap.grown = 0, 0, 0
	sc.packedHeap.pushes, sc.packedHeap.pops, sc.packedHeap.grown = 0, 0, 0
	sc.dfExpansions = 0
	sc.qItemPrunes, sc.qItemExact = 0, 0
}
