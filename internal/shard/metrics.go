package shard

import "hyperdom/internal/obs"

// Package counters of the sharded index: exposed as hyperdom_shard_* in the
// /metrics exposition. The per-collection latency families
// (shard.search_latency, shard.merge_latency, labeled collection="...") are
// resolved per Index in Build; the search count is search_latency's.
var (
	// obsIndexes counts Build and OpenDir calls; obsShards the shards they
	// brought up.
	obsIndexes = obs.New("shard.indexes_built")
	obsShards  = obs.New("shard.shards_started")
	// obsVisited counts the shards searches opened and obsSkipped the ones
	// they did not have to (visited + skipped = searches × shards).
	obsVisited = obs.New("shard.visited")
	obsSkipped = obs.New("shard.skipped")
	// obsMergeCandidates counts candidates reaching the final filter;
	// obsMergePruned the ones the global Sk was proved to dominate.
	obsMergeCandidates = obs.New("shard.merge_candidates")
	obsMergePruned     = obs.New("shard.merge_pruned")
)
