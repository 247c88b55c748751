// Package shard is the partitioned serving index (DESIGN.md §13): it carves
// one hypersphere dataset into N space-partitioned shards, each a frozen
// packed snapshot, and answers the paper's Definition 2 kNN query by walking
// that forest on the calling goroutine with one best-known list
// (knn.SearchForest) — nearest shard first, every shard whose root bound
// exceeds the running distK skipped. What the package owns is the partition,
// its persistence (SaveDir/OpenDir) and the lifetime of the snapshot
// mappings; concurrency comes from concurrent callers, one goroutine each.
//
// The distribution is invisible to callers: Definition 2 filters against
// the GLOBAL Sk, and because the list is shared across shards the final
// filter runs once, against that Sk, so the result set is bit-identical to
// a single-index search over the same data (test-locked for every
// traversal × quantization tier).
package shard

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
	"hyperdom/internal/sstree"
	"hyperdom/internal/tree"
)

// Options configures BuildSharded.
type Options struct {
	// Shards is the shard count; ≤ 0 selects 1 (a single shard, which
	// degenerates to a single-index search).
	Shards int
	// MaxFill is the node capacity of each shard's SS-tree; ≤ 0 selects the
	// default.
	MaxFill int
	// Algorithm is read by nothing: a sharded index is a forest of packed
	// snapshots, and knn.SearchForest walks each depth-first. The field
	// stays only because the frozen benchmark harness (bench/) sets it
	// (DESIGN.md §12).
	Algorithm knn.Algorithm
	// Label names this index in the obs exposition: the per-collection
	// `collection="..."` label of the hyperdom_shard_* latency families.
	// Empty selects "default"; anything else must pass CheckName.
	Label string
}

// fill selects the defaults of the zero fields and checks Label.
func (o *Options) fill() error {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Label == "" {
		o.Label = "default"
	}
	return CheckName(o.Label)
}

// maxNameLen bounds a collection name.
const maxNameLen = 64

// CheckName reports whether name may name a collection: 1 to 64 characters
// from [A-Za-z0-9._-], and neither "." nor "..". A collection name is used
// unescaped as a URL path segment, as a Prometheus label value and as a
// directory name under a snapshot root, and this set is inert in all three.
func CheckName(name string) error {
	ok := len(name) >= 1 && len(name) <= maxNameLen && name != "." && name != ".."
	for i := 0; ok && i < len(name); i++ {
		c := name[i]
		ok = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-'
	}
	if !ok {
		return fmt.Errorf("shard: bad collection name %q: want 1-%d of [A-Za-z0-9._-], not . or ..", name, maxNameLen)
	}
	return nil
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

// Build partitions items into opts.Shards space-partitioned SS-tree shards
// and freezes each. The items slice is not retained; dim is the
// dimensionality every item (and every query) must have. Items come from
// outside — a CSV, a request — so a malformed one is an error here, not a
// panic further down.
//
// Shards are built side by side, at most GOMAXPROCS at a time. Each is
// bulk-loaded by tree.Load from its part of the partition: the cut that made
// the shards goes on cutting inside each one, down to the leaves, so no item
// is inserted one at a time. A shard's frozen bytes — and with them every
// answer and every Stats — depend on its part alone, not on the schedule.
// Against a shard built by Insert over the same part the answers are the
// same and a query scans fewer items and nodes (EXPERIMENTS.md, "Serving —
// bulk-built shards").
func Build(items []geom.Item, dim int, opts Options) (*Index, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("shard: dim = %d", dim)
	}
	for i, it := range items {
		if err := tree.CheckItem(dim, it); err != nil {
			return nil, fmt.Errorf("shard: item %d (id %d): %w", i, it.ID, err)
		}
	}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	x := &Index{
		opts:       opts,
		dim:        dim,
		n:          len(items),
		histSearch: obs.GetOrNewHistogram("shard.search_latency", `collection="`+opts.Label+`"`),
		histMerge:  obs.GetOrNewHistogram("shard.merge_latency", `collection="`+opts.Label+`"`),
	}
	parts := partition(items, dim, opts.Shards)
	x.trees = make([]*packed.Tree, len(parts))
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, part := range parts {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			t := sstree.New(dim, tree.WithMaxFill(opts.MaxFill))
			tree.Load(&t.Tree, part)
			// The shard serves from the frozen snapshot alone, so the pointer
			// tree is garbage from here (an empty shard freezes to an explicit
			// empty snapshot, so a saved directory always has one file per shard).
			x.trees[i] = t.Freeze()
		}()
	}
	wg.Wait()
	obsIndexes.Inc()
	obsShards.Add(uint64(len(parts)))
	return x, nil
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

// partition splits items into n space-partitioned groups of near-equal
// size by tree.Cut, recursively: the widest center dimension of a stride
// sample, cut proportionally to the shard counts on each side in (center[dim],
// ID) order — the same cut tree.Load makes inside each shard, so one splitter
// carves the corpus into shards and each shard into nodes. Deterministic for
// a given input order, and every group is a contiguous region of space, so a
// query's candidates concentrate in few shards and the far ones are skipped
// off their root bound.
func partition(items []geom.Item, dim, n int) [][]geom.Item {
	out := make([][]geom.Item, 0, n)
	var split func(part []geom.Item, n int)
	split = func(part []geom.Item, n int) {
		if n == 1 {
			out = append(out, part)
			return
		}
		d, cut := tree.Cut(part, dim, n)
		if n > 2 {
			// A side cut again picks its dimension from a stride sample;
			// sorted, it shows the sample evenly spaced ranks whatever order
			// Cut left, so the shards are the ones a sort at every cut makes.
			slices.SortFunc(part, func(a, b geom.Item) int {
				return cmp.Or(cmp.Compare(a.Sphere.Center[d], b.Sphere.Center[d]), cmp.Compare(a.ID, b.ID))
			})
		}
		split(part[:cut], (n+1)/2)
		split(part[cut:], n/2)
	}
	split(slices.Clone(items), n)
	return out
}
