package shard

import (
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/obs"
)

// TestSearchExplainMatchesSearch locks the explain contract: SearchExplain's
// result set is bit-identical to Search over the same data, and the trace
// tree it returns is fully populated — one span per shard in shard order,
// the visited ones numbered in visit order with the traversal's work and the
// list's distK handed from each to the next, plus a filter span whose
// candidate count equals the per-shard sum.
func TestSearchExplainMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const d, n, k = 3, 600, 7
	items := randItems(rng, d, n, 2)
	for _, shards := range []int{1, 2, 3} {
		x, err := Build(items, d, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 20; q++ {
			sq := randQuery(rng, d, 1)
			plain := x.Search(sq, k)
			res, ex := x.SearchExplain(sq, k)
			sameItems(t, "explain vs plain", res.Items, plain.Items)
			if res.Stats != plain.Stats {
				t.Fatalf("explain stats %+v, plain %+v", res.Stats, plain.Stats)
			}

			if len(ex.Shards) != shards {
				t.Fatalf("%d shard spans, want %d", len(ex.Shards), shards)
			}
			nodes, scanned, cands, traversalPruned := 0, 0, 0, 0
			byOrder := make([]*obs.ShardSpan, ex.Visited())
			for i := range ex.Shards {
				sp := &ex.Shards[i]
				if sp.Shard != i {
					t.Fatalf("span %d has shard %d", i, sp.Shard)
				}
				if sp.Items <= 0 {
					t.Fatalf("span %d: items %d", i, sp.Items)
				}
				if sp.QueueWaitNs != 0 {
					t.Fatalf("span %d: queue wait %d, nothing queues", i, sp.QueueWaitNs)
				}
				if sp.Skipped {
					continue
				}
				if sp.LatencyNs <= 0 {
					t.Fatalf("span %d: latency %d", i, sp.LatencyNs)
				}
				if sp.Order < 0 || sp.Order >= len(byOrder) || byOrder[sp.Order] != nil {
					t.Fatalf("span %d: order %d of %d visited", i, sp.Order, len(byOrder))
				}
				byOrder[sp.Order] = sp
				nodes += sp.NodesVisited
				scanned += sp.ItemsScanned
				cands += sp.Candidates
				traversalPruned += sp.ItemsScanned - sp.Candidates
			}
			// The list enters the first shard unbounded and every later one
			// with the distK the previous left behind, which only shrinks.
			for o, sp := range byOrder {
				switch {
				case o == 0 && !math.IsInf(float64(sp.BoundObserved), 1):
					t.Fatalf("first visited shard entered with distK %v", sp.BoundObserved)
				case o > 0 && sp.BoundObserved != byOrder[o-1].BoundPublished:
					t.Fatalf("visit %d entered with distK %v, visit %d left %v",
						o, sp.BoundObserved, o-1, byOrder[o-1].BoundPublished)
				case sp.BoundPublished > sp.BoundObserved:
					t.Fatalf("visit %d: distK grew from %v to %v", o, sp.BoundObserved, sp.BoundPublished)
				}
			}
			if last := byOrder[len(byOrder)-1]; math.IsInf(float64(last.BoundPublished), 0) {
				t.Fatalf("final distK not finite over %d items", n)
			}
			if nodes != res.Stats.NodesVisited || scanned != res.Stats.Items {
				t.Fatalf("span sums nodes=%d scanned=%d, stats %d/%d",
					nodes, scanned, res.Stats.NodesVisited, res.Stats.Items)
			}
			if ex.Merge.Candidates != cands {
				t.Fatalf("merge candidates %d, shard sum %d", ex.Merge.Candidates, cands)
			}
			if ex.Merge.Results != len(res.Items) || ex.Merge.Pruned != cands-len(res.Items) {
				t.Fatalf("merge span %+v, %d items", ex.Merge, len(res.Items))
			}
			if ex.Merge.LatencyNs <= 0 {
				t.Fatalf("merge latency %d", ex.Merge.LatencyNs)
			}
			// With n > k the final filter asks the criterion once per
			// candidate, and every item the traversal scanned but did not
			// keep was pruned there (Case 3).
			if res.Stats.DomChecks != ex.Merge.Candidates {
				t.Fatalf("stats dom checks %d, merge candidates %d", res.Stats.DomChecks, ex.Merge.Candidates)
			}
			if want := traversalPruned + ex.Merge.Pruned; res.Stats.Pruned != want {
				t.Fatalf("stats pruned %d, want Σ(items scanned − candidates) %d + merge pruned %d",
					res.Stats.Pruned, traversalPruned, ex.Merge.Pruned)
			}
		}
		x.Close()
	}
}

// TestSearchExplainAllocs locks the explain budget: the extra allocations
// of SearchExplain over Search are a small per-request constant (the Explain
// and its span slice), NOT a function of shard count — per-shard
// recording is plain scalar stores into preallocated slots.
func TestSearchExplainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	rng := rand.New(rand.NewSource(83))
	const d, n, k = 3, 400, 5
	items := randItems(rng, d, n, 2)
	extraPerShards := make(map[int]float64)
	for _, shards := range []int{2, 4} {
		x, err := Build(items, d, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		sq := randQuery(rng, d, 1)
		plain := testing.AllocsPerRun(50, func() { x.Search(sq, k) })
		explain := testing.AllocsPerRun(50, func() { x.SearchExplain(sq, k) })
		extraPerShards[shards] = explain - plain
		x.Close()
	}
	// Allow slack of 1 for allocator noise across configurations, but the
	// explain overhead must not grow with the shard count.
	if extra2, extra4 := extraPerShards[2], extraPerShards[4]; extra4 > extra2+1 {
		t.Fatalf("explain alloc overhead grew with shards: 2 shards +%v, 4 shards +%v",
			extra2, extra4)
	}
	for shards, extra := range extraPerShards {
		if extra > 4 {
			t.Fatalf("%d shards: explain adds %v allocs/op, want <= 4", shards, extra)
		}
	}
}
