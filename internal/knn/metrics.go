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
// heap pushes/pops, heap backing-array growth, depth-first child
// expansions and the children a box bound pruned — into these process-wide
// counters, one batch of atomic adds per search. The hot per-node
// increments are plain field adds on scratch-owned structs.
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

// Per-substrate search counters and per-search latency histograms (ISSUE
// 3), indexed by the packed.Substrate an index reports: one counter per
// substrate and one histogram per (substrate, strategy) pair of the
// "knn.search_latency" family, plus a brute-force instance. Each search
// records exactly one sample, at the same flush point as the counters.
// substrateLabels is also what an obs.Op calls the substrate; snapshots
// stamped SubstrateUnknown land in "other".
var (
	substrateLabels [packed.NumSubstrates]string
	obsSearchSub    [packed.NumSubstrates]*obs.Counter // knn.searches.<substrate>
	searchLatency   [packed.NumSubstrates][2]*obs.Histogram
	bruteLatency    = obs.NewHistogram("knn.search_latency", `substrate="brute",algo="scan"`)
)

func init() {
	for s := range substrateLabels {
		label := "other"
		if s != int(packed.SubstrateUnknown) {
			label = packed.Substrate(s).String()
		}
		substrateLabels[s] = label
		obsSearchSub[s] = obs.New("knn.searches." + label)
		for _, a := range []Algorithm{DF, HS} {
			searchLatency[s][a] = obs.NewHistogram("knn.search_latency",
				fmt.Sprintf("substrate=%q,algo=%q", label, a.String()))
		}
	}
}

// flushStats adds one query's Stats to the global counters.
func flushStats(st *Stats) {
	obsNodesVisited.Add(uint64(st.NodesVisited))
	obsItemsScanned.Add(uint64(st.Items))
	obsDomChecks.Add(uint64(st.DomChecks))
	obsPruned.Add(uint64(st.Pruned))
}

// fillOp writes the search part of a telemetry record — the one place a
// finished search's header and work counts become an obs.Op.
func fillOp(op *obs.Op, substrate, algo string, k int, start time.Time, latNs int64, st *Stats, heapPushes uint64) {
	op.WhenUnixNs, op.LatencyNs = start.UnixNano(), latNs
	op.Substrate, op.Algo, op.K = substrate, algo, k
	op.Nodes, op.Items = uint64(st.NodesVisited), uint64(st.Items)
	op.DomChecks, op.Pruned, op.HeapPushes = uint64(st.DomChecks), uint64(st.Pruned), heapPushes
}

// flushObs drains one finished search into the global counters, records
// its latency into the (substrate, strategy) histogram, writes its
// telemetry record, and zeroes the scratch-local tallies. The record goes
// into ex when the caller asked for the search's explain — that caller owns
// the outermost clock and records the op — and is offered to the Slow ring
// here otherwise. Called once per search when the obs gate is on; the
// scratch tallies still accumulate (cheaply) when it is off, so they are
// also zeroed here to keep a later snapshot from attributing old work to a
// new window. The return value is the ID of the span trace this search
// recorded, 0 when it was not sampled.
func (sc *scratch) flushObs(sub packed.Substrate, algo Algorithm, k int, start time.Time, st *Stats, ex *obs.Op) (traceID uint64) {
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
	if sc.boxPrunes != 0 {
		obsBoxPrunes.Add(sc.boxPrunes)
	}

	if !start.IsZero() {
		lat := time.Since(start).Nanoseconds()
		searchLatency[sub][algo].Record(lat)
		var own obs.Op
		op := ex
		if op == nil {
			op = &own
		}
		fillOp(op, substrateLabels[sub], algo.String(), k, start, lat, st, heapPushes)
		if sc.tb != nil {
			// Freeze the sampled span tree into the record: a trace is
			// retained exactly as long as its op stays among the SlowSlots
			// slowest (tail sampling).
			op.Trace = sc.trace.Finish(lat)
			sc.tb = nil
			traceID = op.Trace.ID
		}
		if ex == nil {
			obs.Slow.Record(op)
		}
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
	sc.qItemPrunes, sc.qItemExact, sc.boxPrunes = 0, 0, 0
}
