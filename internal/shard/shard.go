// Package shard is the partitioned serving index (DESIGN.md §13): it carves
// one hypersphere dataset into N space-partitioned shards, each a frozen
// packed snapshot, and answers the paper's Definition 2 kNN query by walking
// that forest on the calling goroutine with one best-known list
// (knn.SearchForest) — nearest shard first, every shard whose root bound
// exceeds the running distK skipped. What the package owns is the partition
// plan, its persistence (SaveDir/OpenDir) and the lifetime of the snapshot
// mappings; concurrency comes from concurrent callers, one goroutine each.
//
// The distribution is invisible to callers: Definition 2 filters against
// the GLOBAL Sk, and because the list is shared across shards the final
// filter runs once, against that Sk, so the result set is bit-identical to
// a single-index search over the same data (test-locked for every substrate
// × traversal × quantization tier).
package shard

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/mtree"
	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
	"hyperdom/internal/rtree"
	"hyperdom/internal/sstree"
	"hyperdom/internal/tree"
)

// Options configures BuildSharded.
type Options struct {
	// Shards is the shard count; ≤ 0 selects 1 (a single shard, which
	// degenerates to a single-index search).
	Shards int
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
	if o.Substrate == "" {
		o.Substrate = packed.SubstrateSSTree.String()
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

// Index is a partitioned kNN index. Build with Build or OpenDir. Search is
// safe for concurrent use; Close waits for the searches in flight.
type Index struct {
	opts Options
	dim  int
	n    int

	// trees are the shards, in shard order: the packed snapshot each serves
	// from is the only copy of its data, whether it was frozen in this
	// process or opened from a file, and what SaveDir persists.
	trees []*packed.Tree

	// plan is the partition planner's split tree: how space was cut into
	// shards. SaveDir persists it in the manifest so routing context
	// survives reload; OpenDir restores it.
	plan *PlanNode

	// snaps holds the mmap-backed snapshots of an OpenDir index. A search
	// reads the mapped pages, so it holds life for reading and Close takes
	// it for writing before unmapping.
	snaps  []*packed.Snapshot
	life   sync.RWMutex
	closed bool

	// Per-collection latency families, resolved once at build.
	histSearch *obs.Histogram
	histMerge  *obs.Histogram
}

// Build partitions items into opts.Shards space-partitioned shards and
// freezes each. The items slice is not retained; dim is the dimensionality
// every item (and every query) must have. Items come from outside — a CSV, a
// request — so a malformed one is an error here, not a panic further down.
//
// Shards are built side by side, at most GOMAXPROCS at a time. Each is still
// filled by inserting its part in partition order, so its frozen bytes — and
// with them every answer and every Stats — are the same under any schedule.
// The inserts are on purpose: sstree.BulkLoad is several times faster and
// the tree it leaves makes kNN scan 2–50× the items (see its comment).
func Build(items []geom.Item, dim int, opts Options) (*Index, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("shard: dim = %d", dim)
	}
	for i, it := range items {
		if err := tree.CheckItem(dim, it); err != nil {
			return nil, fmt.Errorf("shard: item %d (id %d): %w", i, it.ID, err)
		}
	}
	opts.fill()
	substrate := packed.SubstrateFromString(opts.Substrate)
	if substrate == packed.SubstrateUnknown {
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
	x.trees = make([]*packed.Tree, len(parts))
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, part := range parts {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			t := newTree(substrate, dim, opts.MaxFill)
			for _, it := range part {
				t.Insert(it)
			}
			// The shard serves from the frozen snapshot alone, so the pointer
			// tree is garbage from here (an empty shard freezes to an explicit
			// empty snapshot, so a saved directory always has one file per shard).
			x.trees[i] = t.Freeze()
		}()
	}
	wg.Wait()
	if obs.On() {
		obsIndexes.Inc()
		obsShards.Add(uint64(len(parts)))
	}
	return x, nil
}

// newTree returns an empty pointer tree of a known substrate; maxFill ≤ 0
// selects the default node capacity.
func newTree(substrate packed.Substrate, dim, maxFill int) *tree.Tree {
	fill := tree.WithMaxFill(maxFill)
	switch substrate {
	case packed.SubstrateMTree:
		return &mtree.New(dim, fill).Tree
	case packed.SubstrateRTree:
		return &rtree.New(dim, fill).Tree
	}
	return &sstree.New(dim, fill).Tree
}

// Shards returns the shard count.
func (x *Index) Shards() int { return len(x.trees) }

// Len returns the total item count.
func (x *Index) Len() int { return x.n }

// Dim returns the dimensionality.
func (x *Index) Dim() int { return x.dim }

// Label returns the collection label of the metrics exposition.
func (x *Index) Label() string { return x.opts.Label }

// ShardSizes returns the per-shard item counts, in shard order.
func (x *Index) ShardSizes() []int {
	out := make([]int, len(x.trees))
	for i, t := range x.trees {
		out[i] = t.Len()
	}
	return out
}

// Close waits for the searches in flight, then releases any snapshot
// mappings behind an OpenDir index — strictly in that order, because a
// search must not touch an unmapped page. A search after Close panics.
// Safe to call more than once.
func (x *Index) Close() {
	x.life.Lock()
	defer x.life.Unlock()
	x.closed = true
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
// shards and the far ones are skipped off their root bound. The returned
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
		slices.SortFunc(part, func(a, b geom.Item) int {
			switch ca, cb := a.Sphere.Center[d], b.Sphere.Center[d]; {
			case ca < cb:
				return -1
			case ca > cb:
				return 1
			}
			return cmp.Compare(a.ID, b.ID)
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
