package shard

import (
	"fmt"
	"time"

	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
)

// Explain is what SearchExplain hands back beside the answer: the request
// record with its Forest part filled — one ShardSpan per shard, in shard
// order: whether it was visited and in which position, latency, the
// candidates it added, traversal work, coarse-prune hits, and the list's
// distK on entering and leaving it, plus the span of the final Definition 2
// filter. The request fields are the caller's to fill (the HTTP middleware
// does). Semantics are spelled out in DESIGN.md §9.
type Explain = obs.Op

// Search answers the Definition 2 kNN query over all shards: one best-known
// list walks them nearest first on the calling goroutine, skipping every
// shard whose root bound exceeds the running distK (knn.SearchForest) and
// filters the candidates with Hyperbola. The result — items in ascending
// (MaxDist, ID) order — is bit-identical to a single-index knn.Search over
// the same data, and Stats — the traversal work over the visited shards
// plus the final filter's DomChecks/Pruned — is the same every time the
// query is asked. With the obs gate on it is the one layer that times the
// search: one shard.search_latency sample, whose count is the searches.
func (x *Index) Search(sq geom.Sphere, k int) knn.Result {
	return x.search(sq, k, nil)
}

// SearchExplain is Search plus the search's telemetry record. The result is
// bit-identical to Search over the same data (the record holds scalar
// by-products the traversals produce anyway); the extra cost is two
// allocations per request and two clock reads per visited shard,
// independent of the process-wide obs gate. The search records nothing into
// obs.Slow: the caller holds the record and, if it wraps the search in a
// request (the HTTP middleware), completes and records it.
func (x *Index) SearchExplain(sq geom.Sphere, k int) (knn.Result, *Explain) {
	ex := &Explain{}
	res := x.search(sq, k, &ex.Forest)
	return res, ex
}

func (x *Index) search(sq geom.Sphere, k int, ex *obs.Forest) knn.Result {
	if k <= 0 {
		panic(fmt.Sprintf("shard: k = %d", k))
	}
	x.life.RLock()
	defer x.life.RUnlock()
	if x.closed {
		panic("shard: search on a closed Index")
	}
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	res, visited := knn.SearchForest(x.trees, sq, k, ex)
	if !t0.IsZero() { // the gate was on when the search began
		x.histSearch.Record(time.Since(t0).Nanoseconds())
		if ex != nil {
			x.histMerge.Record(ex.Merge.LatencyNs)
		}
		obsVisited.Add(uint64(visited))
		obsSkipped.Add(uint64(len(x.trees) - visited))
		// The final filter saw one criterion call per candidate — or, with
		// fewer than k items in the collection, kept them all unasked.
		cands := max(res.Stats.DomChecks, len(res.Items))
		obsMergeCandidates.Add(uint64(cands))
		obsMergePruned.Add(uint64(cands - len(res.Items)))
	}
	return res
}
