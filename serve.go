package hyperdom

import (
	"hyperdom/internal/server"
	"hyperdom/internal/shard"
)

// ShardedIndex is a space-partitioned kNN index: the dataset is carved into
// shards, and a query walks them nearest first with one best-known list on
// the calling goroutine, skipping every shard whose bounding region lies
// beyond the running distK. Result sets are bit-identical to a single-index
// search when the criterion is sound (Hyperbola, Exact). See DESIGN.md §13.
type ShardedIndex = shard.Index

// ShardOptions configures BuildSharded.
type ShardOptions = shard.Options

// BuildSharded partitions items into opts.Shards space-partitioned shards
// (sample-based balanced splits over item centers) and freezes each. Close
// the returned index when done with it.
func BuildSharded(items []Item, dim int, opts ShardOptions) (*ShardedIndex, error) {
	return shard.Build(items, dim, opts)
}

// OpenShardOptions configures OpenSharded. The structural build
// parameters (substrate, dimensionality, shard count) come from the
// snapshot directory's manifest; this only picks serving parameters.
type OpenShardOptions = shard.OpenOptions

// OpenSharded loads a snapshot directory written by ShardedIndex.SaveDir
// (or datagen -freeze) into a serving index without rebuilding any tree:
// every shard file is mmapped where the platform supports it and answers
// are bit-identical to the index that was saved. Close the returned index
// to unmap the snapshots (it waits for running searches); result Center
// slices alias the mapping, so close only after results are no longer in
// use. See DESIGN.md §16.
func OpenSharded(dir string, opts OpenShardOptions) (*ShardedIndex, error) {
	return shard.OpenDir(dir, opts)
}

// Server is the HTTP+JSON front of the sharded layer: multi-collection
// routing, kNN and dominance endpoints under /v1/collections/{name}/, and
// the obs exposition (/metrics, /debug) mounted beside them. See
// cmd/hyperdomd for the serving binary.
type Server = server.Server

// NewServer returns a server with no collections; attach ShardedIndexes
// with AddCollection and serve Handler().
func NewServer() *Server { return server.New() }
