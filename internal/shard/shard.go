// Package shard is the sharded scatter-gather serving layer (DESIGN.md
// §13): it carves one hypersphere dataset into N space-partitioned shards,
// each owning a frozen packed snapshot searched by its own internal/engine
// worker pool, and answers the paper's Definition 2 kNN query by
// broadcasting it to every shard and merging the per-shard candidate
// streams under the global Sk.
//
// Two properties make the distribution invisible to callers:
//
//   - Shards return RAW candidate streams (knn.SearchCandidates), not
//     filtered answers. Definition 2 filters against the GLOBAL Sk, which
//     no single shard knows, and dominance is not monotone in MaxDist — an
//     item dominated by a shard-local Sk need not be dominated by the
//     closer global one. The merge layer computes Sk over the union and
//     applies the one final filter, so the result set is bit-identical to
//     a single-index search over the same data (test-locked for every
//     substrate × traversal × quantization tier).
//
//   - distK pushdown: all shards of a query share one knn.Bound. Each
//     shard publishes its running local distK into it, the merge layer
//     publishes the running global distK as candidate streams arrive, and
//     laggard shards read the bound at node-prune decisions — a shard that
//     has already found k close candidates prunes the others' traversals.
//     Every value in the bound is a k-th smallest MaxDist over a subset of
//     the data, hence ≥ the final global distK, so pushdown prunes only
//     items the final global Sk provably dominates (Lemma 9).
package shard

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"hyperdom/internal/dominance"
	"hyperdom/internal/engine"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/mtree"
	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
	"hyperdom/internal/rtree"
	"hyperdom/internal/sstree"
)

// Options configures BuildSharded.
type Options struct {
	// Shards is the shard count; ≤ 0 selects 1 (a single shard, which
	// degenerates to a pooled single-index search).
	Shards int
	// WorkersPerShard sizes each shard's engine pool; ≤ 0 selects
	// ceil(GOMAXPROCS / Shards), at least 1, so the fleet's total worker
	// count roughly matches the machine.
	WorkersPerShard int
	// Substrate selects the per-shard index: "sstree" (default), "mtree"
	// or "rtree".
	Substrate string
	// MaxFill is the substrate node capacity; ≤ 0 selects the default.
	MaxFill int
	// Criterion is the dominance criterion (nil selects Hyperbola, the
	// exact one). Bit-identity with a single-index search is guaranteed
	// for sound criteria (Hyperbola, Exact); for heuristic criteria both
	// layouts return supersets of the truth that may differ.
	Criterion dominance.Criterion
	// Algorithm is the per-shard traversal strategy. The zero value is DF;
	// servers typically select knn.HS.
	Algorithm knn.Algorithm
	// DisablePushdown turns off cross-shard distK pushdown. Results are
	// identical either way; with pushdown off the per-shard traversals —
	// and therefore the aggregate Stats — are deterministic.
	DisablePushdown bool
	// SampleSize bounds how many item centers the planner inspects per
	// split when picking the cut dimension; ≤ 0 selects 1024.
	SampleSize int
	// Label names this index in the obs exposition: the per-collection
	// `collection="..."` label of the hyperdom_shard_* latency families.
	// Empty selects "default".
	Label string
}

func (o *Options) fill() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.WorkersPerShard <= 0 {
		o.WorkersPerShard = (runtime.GOMAXPROCS(0) + o.Shards - 1) / o.Shards
		if o.WorkersPerShard < 1 {
			o.WorkersPerShard = 1
		}
	}
	if o.Substrate == "" {
		o.Substrate = "sstree"
	}
	if o.Criterion == nil {
		o.Criterion = dominance.Hyperbola{}
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 1024
	}
	if o.Label == "" {
		o.Label = "default"
	}
}

// shardState is one shard: the packed snapshot it serves from — the only
// copy of the shard's data, whether it was frozen in this process or opened
// from a file, and what SaveDir persists — and the engine pool that
// searches it.
type shardState struct {
	snap *packed.Tree
	eng  *engine.Engine
}

func newShardState(snap *packed.Tree, opts Options) shardState {
	return shardState{
		snap: snap,
		eng: engine.New(knn.WrapPacked(snap),
			engine.WithWorkers(opts.WorkersPerShard),
			engine.WithCriterion(opts.Criterion),
			engine.WithAlgorithm(opts.Algorithm)),
	}
}

// Index is a sharded scatter-gather kNN index. Build with Build; Close
// releases the worker pools. Search is safe for concurrent use; Close must
// happen-after every search.
type Index struct {
	opts   Options
	dim    int
	n      int
	shards []shardState

	// plan is the partition planner's split tree: how space was cut into
	// shards. SaveDir persists it in the manifest so routing context
	// survives reload; OpenDir restores it.
	plan *PlanNode

	// snaps holds the mmap-backed snapshots of an OpenDir index; Close
	// unmaps them after stopping the engines that search them.
	snaps []*packed.Snapshot

	// Per-collection latency families, resolved once at build.
	histSearch *obs.Histogram
	histMerge  *obs.Histogram

	// scatterCands tallies, per shard, the candidates its streams have
	// contributed since build (one atomic add per shard per query, in the
	// gather loop). The shard.candidate_imbalance{collection=...} callback
	// gauge reads them: max over mean of the per-shard totals, 1.0 when the
	// partitioning spreads query load evenly, growing as one shard turns
	// hot. 0 before any query.
	scatterCands   []atomic.Uint64
	unregisterImbl func()
}

// Build partitions items into opts.Shards space-partitioned shards and
// starts an engine pool per shard. The items slice is not retained; dim is
// the dimensionality every item (and every query) must have.
func Build(items []geom.Item, dim int, opts Options) (*Index, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("shard: dim = %d", dim)
	}
	opts.fill()
	switch opts.Substrate {
	case "sstree", "mtree", "rtree":
	default:
		return nil, fmt.Errorf("shard: unknown substrate %q", opts.Substrate)
	}
	x := &Index{
		opts:       opts,
		dim:        dim,
		n:          len(items),
		histSearch: obs.GetOrNewHistogram("shard.search_latency", `collection="`+opts.Label+`"`),
		histMerge:  obs.GetOrNewHistogram("shard.merge_latency", `collection="`+opts.Label+`"`),
	}
	parts, plan := partition(items, dim, opts.Shards, opts.SampleSize)
	x.plan = plan
	x.shards = make([]shardState, len(parts))
	for i, part := range parts {
		snap, err := buildTree(opts.Substrate, part, dim, opts.MaxFill)
		if err != nil {
			for j := 0; j < i; j++ {
				x.shards[j].eng.Close()
			}
			return nil, err
		}
		x.shards[i] = newShardState(snap, opts)
	}
	x.scatterCands = make([]atomic.Uint64, len(x.shards))
	x.unregisterImbl = obs.RegisterGaugeFunc("shard.candidate_imbalance",
		`collection="`+opts.Label+`"`, x.candidateImbalance)
	if obs.On() {
		obsIndexes.Inc()
		obsShards.Add(uint64(len(parts)))
	}
	return x, nil
}

// candidateImbalance is the shard.candidate_imbalance callback: the
// busiest shard's cumulative candidate contribution over the per-shard
// mean. 1.0 means perfectly balanced scatter traffic; k·N/total shards
// pathological. 0 before the first query.
func (x *Index) candidateImbalance() float64 {
	if len(x.scatterCands) == 0 {
		return 0
	}
	var max, total uint64
	for i := range x.scatterCands {
		c := x.scatterCands[i].Load()
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(x.scatterCands))
	return float64(max) / mean
}

// buildTree constructs, fills and freezes one shard's substrate and returns
// the frozen snapshot alone: the shard serves from it, so the pointer tree
// is garbage once this returns (an empty shard freezes to an explicit empty
// snapshot, so a saved directory always has one file per shard).
func buildTree(substrate string, items []geom.Item, dim, maxFill int) (*packed.Tree, error) {
	switch substrate {
	case "sstree":
		var t *sstree.Tree
		if maxFill > 0 {
			t = sstree.New(dim, sstree.WithMaxFill(maxFill))
		} else {
			t = sstree.New(dim)
		}
		for _, it := range items {
			t.Insert(it)
		}
		return t.Freeze(), nil
	case "mtree":
		var t *mtree.Tree
		if maxFill > 0 {
			t = mtree.New(dim, mtree.WithMaxFill(maxFill))
		} else {
			t = mtree.New(dim)
		}
		for _, it := range items {
			t.Insert(it)
		}
		return t.Freeze(), nil
	case "rtree":
		var t *rtree.Tree
		if maxFill > 0 {
			t = rtree.New(dim, rtree.WithMaxFill(maxFill))
		} else {
			t = rtree.New(dim)
		}
		for _, it := range items {
			t.Insert(it)
		}
		return t.Freeze(), nil
	}
	return nil, fmt.Errorf("shard: unknown substrate %q", substrate)
}

// Shards returns the shard count.
func (x *Index) Shards() int { return len(x.shards) }

// Len returns the total item count.
func (x *Index) Len() int { return x.n }

// Dim returns the dimensionality.
func (x *Index) Dim() int { return x.dim }

// Label returns the collection label of the metrics exposition.
func (x *Index) Label() string { return x.opts.Label }

// ShardSizes returns the per-shard item counts, in shard order.
func (x *Index) ShardSizes() []int {
	out := make([]int, len(x.shards))
	for i := range x.shards {
		out[i] = x.shards[i].snap.Len()
	}
	return out
}

// Close stops every shard's worker pool, then releases any snapshot
// mappings behind an OpenDir index — strictly in that order, because a
// worker still draining a search must not touch an unmapped page. Safe to
// call more than once.
func (x *Index) Close() {
	if x.unregisterImbl != nil {
		x.unregisterImbl()
		x.unregisterImbl = nil
	}
	for i := range x.shards {
		x.shards[i].eng.Close()
	}
	for _, s := range x.snaps {
		s.Close()
	}
	x.snaps = nil
}

// PlanNode is one node of the partition planner's split tree. An internal
// node records the cut: items whose center[Dim] orders before Cut went
// left, the rest right (ties broken by ID at plan time). A node with nil
// Left/Right is a leaf owning shard Shard. SaveDir persists the tree in
// the manifest — the partitioning is a property of the corpus, and a
// reloaded index must keep serving (and later route inserts) under the
// same plan rather than re-derive a different one.
type PlanNode struct {
	Dim   int       `json:"dim,omitempty"`
	Cut   float64   `json:"cut,omitempty"`
	Shard int       `json:"shard"`
	Left  *PlanNode `json:"left,omitempty"`
	Right *PlanNode `json:"right,omitempty"`
}

// Plan returns the partition planner's split tree (nil only for indexes
// predating plan capture).
func (x *Index) Plan() *PlanNode { return x.plan }

// partition splits items into n space-partitioned groups of near-equal
// size: recursively pick the widest center dimension from a stride sample,
// sort by (center[dim], ID) and cut proportionally to the shard counts on
// each side. Deterministic for a given input order, and every group is a
// contiguous region of space, so a query's candidates concentrate in few
// shards and the others prune fast off the pushdown bound. The returned
// plan tree records every cut, leaves numbered in shard order.
func partition(items []geom.Item, dim, n, sampleSize int) ([][]geom.Item, *PlanNode) {
	work := make([]geom.Item, len(items))
	copy(work, items)
	out := make([][]geom.Item, 0, n)
	var split func(part []geom.Item, n int) *PlanNode
	split = func(part []geom.Item, n int) *PlanNode {
		if n == 1 {
			out = append(out, part)
			return &PlanNode{Shard: len(out) - 1}
		}
		d := widestDim(part, dim, sampleSize)
		sort.Slice(part, func(a, b int) bool {
			ca, cb := part[a].Sphere.Center[d], part[b].Sphere.Center[d]
			if ca != cb {
				return ca < cb
			}
			return part[a].ID < part[b].ID
		})
		n1 := (n + 1) / 2
		cut := len(part) * n1 / n
		// The boundary is the first right-side center value (the last value
		// overall when everything went left — degenerate tiny parts).
		var boundary float64
		switch {
		case cut < len(part):
			boundary = part[cut].Sphere.Center[d]
		case len(part) > 0:
			boundary = part[len(part)-1].Sphere.Center[d]
		}
		node := &PlanNode{Dim: d, Cut: boundary}
		node.Left = split(part[:cut], n1)
		node.Right = split(part[cut:], n-n1)
		return node
	}
	plan := split(work, n)
	return out, plan
}

// widestDim picks the center dimension with the widest spread over a
// stride sample of at most sampleSize items.
func widestDim(items []geom.Item, dim, sampleSize int) int {
	if len(items) == 0 {
		return 0
	}
	stride := 1
	if len(items) > sampleSize {
		stride = (len(items) + sampleSize - 1) / sampleSize
	}
	best, bestSpread := 0, math.Inf(-1)
	for d := 0; d < dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < len(items); i += stride {
			c := items[i].Sphere.Center[d]
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if spread := hi - lo; spread > bestSpread {
			best, bestSpread = d, spread
		}
	}
	return best
}
