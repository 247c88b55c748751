package shard

import (
	"fmt"
	"slices"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/engine"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
)

// Explain is the request-scoped trace tree of one scatter-gather search
// (ISSUE 8): one ShardSpan per shard — latency, engine queue wait,
// candidates streamed, traversal work, coarse-prune hits, and the distK
// pushdown bound observed vs. published — plus the final merge/filter span.
// The serving layer wraps it in an obs.RequestTrace; semantics are spelled
// out in DESIGN.md §14.
type Explain struct {
	Shards []obs.ShardSpan `json:"shards"`
	Merge  obs.MergeSpan   `json:"merge"`
}

// Search answers the Definition 2 kNN query by scatter-gather: broadcast
// to every shard, merge the per-shard candidate streams, compute the
// global Sk and apply the one final dominance filter. The result — items
// in ascending (MaxDist, ID) order — is bit-identical to a single-index
// knn.Search over the same data when the criterion is sound (Hyperbola,
// Exact). Stats aggregates the per-shard traversal work plus the merge
// layer's own DomChecks/Pruned; it is deterministic only when pushdown is
// disabled (racing bound publications otherwise change how much work each
// traversal happens to do, never the answer).
func (x *Index) Search(sq geom.Sphere, k int) knn.Result {
	return x.search(sq, k, nil)
}

// SearchExplain is Search plus the per-request trace tree. The result is
// bit-identical to Search over the same data (the trace records scalar
// by-products the traversals produce anyway); the extra cost is two slice
// allocations per request and a few clock reads per shard, independent of
// the process-wide obs gate.
func (x *Index) SearchExplain(sq geom.Sphere, k int) (knn.Result, *Explain) {
	ex := &Explain{}
	res := x.search(sq, k, ex)
	return res, ex
}

func (x *Index) search(sq geom.Sphere, k int, ex *Explain) knn.Result {
	if k <= 0 {
		panic(fmt.Sprintf("shard: k = %d", k))
	}
	on := obs.On()
	var sw obs.Stopwatch
	if on {
		sw = obs.StartTimer()
		obsQueries.Inc()
		obsScatter.Add(uint64(len(x.shards)))
	}
	var ext *knn.Bound
	if !x.opts.DisablePushdown {
		ext = knn.NewBound()
	}

	// Scatter: one candidate search per shard, each through that shard's
	// engine pool (so it runs on the pool's warm arenas). Results arrive
	// in completion order so the gather loop can tighten the shared bound
	// for shards still in flight. The explain path pre-sizes its span and
	// telemetry slices here — the per-shard recording itself is plain
	// scalar stores, zero allocations per shard.
	type arrival struct {
		i  int
		cs knn.CandidateSet
	}
	var tts []engine.TaskTelemetry
	if ex != nil {
		ex.Shards = make([]obs.ShardSpan, len(x.shards))
		tts = make([]engine.TaskTelemetry, len(x.shards))
	}
	ch := make(chan arrival, len(x.shards))
	for i := range x.shards {
		if ex == nil {
			go func(i int) {
				ch <- arrival{i, x.shards[i].eng.SearchCandidates(sq, k, ext, nil)}
			}(i)
			continue
		}
		go func(i int) {
			t0 := time.Now()
			cs := x.shards[i].eng.SearchCandidates(sq, k, ext, &tts[i])
			ex.Shards[i] = obs.ShardSpan{
				Shard:          i,
				Items:          x.shards[i].snap.Len(),
				LatencyNs:      time.Since(t0).Nanoseconds(),
				QueueWaitNs:    tts[i].QueueWaitNs,
				Candidates:     len(cs.Candidates),
				NodesVisited:   cs.Stats.NodesVisited,
				ItemsScanned:   cs.Stats.Items,
				CoarsePrunes:   cs.CoarsePrunes,
				BoundObserved:  obs.BoundValue(cs.BoundObserved),
				BoundPublished: obs.BoundValue(cs.BoundPublished),
				TraceID:        cs.TraceID,
			}
			ch <- arrival{i, cs}
		}(i)
	}

	// Gather: as each stream lands, fold its sorted prefix — its k smallest
	// — into the global top-k and publish the running global distK back to
	// the laggard shards. That is a k-th smallest MaxDist over a subset of
	// the data, so it can never undershoot the final global distK (the
	// pushdown safety invariant of knn.Bound). After the last arrival the
	// top-k's k-th is the global Sk.
	sets := make([]knn.CandidateSet, len(x.shards))
	var res knn.Result
	res.K = k
	top := knn.NewTopK(k, x.n)
	for range x.shards {
		a := <-ch
		sets[a.i] = a.cs
		x.scatterCands[a.i].Add(uint64(len(a.cs.Candidates)))
		addStats(&res.Stats, &a.cs.Stats)
		for _, c := range a.cs.Candidates[:min(k, len(a.cs.Candidates))] {
			// The prefix is ascending: the first candidate the full top-k
			// turns away ends the fold.
			if top.Full() && knn.CompareCandidates(c, top.Kth()) >= 0 {
				break
			}
			top.Offer(c)
		}
		if ext != nil && top.Full() {
			ext.Tighten(top.Kth().MaxDist)
		}
	}

	var msw obs.Stopwatch
	if on {
		msw = obs.StartTimer()
	}
	var mt time.Time
	if ex != nil {
		mt = time.Now()
	}
	var ms *obs.MergeSpan
	if ex != nil {
		ms = &ex.Merge
	}
	res.Items = x.merge(sets, top, sq, &res.Stats, ms)
	if ex != nil {
		ex.Merge.LatencyNs = time.Since(mt).Nanoseconds()
	}
	if on {
		msw.Stop(x.histMerge)
		sw.Stop(x.histSearch)
	}
	return res
}

// merge turns the shards' candidate sets into the final Definition 2
// answer: top's k-th is the global Sk, every candidate Sk does not provably
// dominate survives, and only the survivors are sorted. Fewer than k
// candidates in total means the whole database qualified. ms, when
// non-nil, receives the merge's explain scalars (candidates folded, final
// filter prunes, results kept).
func (x *Index) merge(sets []knn.CandidateSet, top *knn.TopK, sq geom.Sphere, stats *knn.Stats, ms *obs.MergeSpan) []geom.Item {
	total := 0
	for i := range sets {
		total += len(sets[i].Candidates)
	}
	if ms != nil {
		ms.Candidates = total
	}
	if total == 0 {
		return nil
	}
	on := obs.On()
	if on {
		obsMergeCandidates.Add(uint64(total))
	}
	// Survivors compact into the first set's storage: each set is a fresh
	// slice this request owns, and the write index never passes the read.
	kept := sets[0].Candidates[:0]
	if !top.Full() {
		for i := range sets {
			kept = append(kept, sets[i].Candidates...)
		}
	} else {
		var anch dominance.Anchored
		anch.Reset(x.opts.Criterion, top.Kth().Item.Sphere, sq)
		for i := range sets {
			for _, c := range sets[i].Candidates {
				if !anch.Dominates(c.Item.Sphere) {
					kept = append(kept, c)
				}
			}
		}
		pruned := total - len(kept)
		stats.DomChecks += total
		stats.Pruned += pruned
		if ms != nil {
			ms.Pruned = pruned
		}
		if on {
			obsMergePruned.Add(uint64(pruned))
			anch.FlushObs()
		}
	}
	slices.SortFunc(kept, knn.CompareCandidates)
	out := make([]geom.Item, len(kept))
	for i := range kept {
		out[i] = kept[i].Item
	}
	if ms != nil {
		ms.Results = len(out)
	}
	return out
}

func addStats(dst, src *knn.Stats) {
	dst.NodesVisited += src.NodesVisited
	dst.Items += src.Items
	dst.DomChecks += src.DomChecks
	dst.Pruned += src.Pruned
}
