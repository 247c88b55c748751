package shard

import (
	"math/rand"
	"testing"

	"hyperdom/internal/obs"
)

// TestVisitedSkippedCounters pins the walk's counters: every search adds
// one shard.search_latency sample — the search count — and its shard count
// to shard.visited + shard.skipped, split the way its Explain says.
func TestVisitedSkippedCounters(t *testing.T) {
	was := obs.On()
	obs.SetEnabled(true)
	defer obs.SetEnabled(was)
	rng := rand.New(rand.NewSource(907))
	const shards, queries = 4, 20
	x, err := Build(twoClusters(rng, 150, 1000), 2, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	hist := obs.GetOrNewHistogram("shard.search_latency", `collection="default"`)
	before, samples := obs.Snapshot(), hist.Snap().Count
	visited := 0
	for i := 0; i < queries; i++ {
		_, ex := x.SearchExplain(randQuery(rng, 2, 1), 5)
		visited += ex.Visited()
	}
	diff := obs.Snapshot().Diff(before)
	if got := hist.Snap().Count - samples; got != queries {
		t.Errorf("shard.search_latency took %d samples, want %d", got, queries)
	}
	if got := diff.Get("shard.visited"); got != uint64(visited) {
		t.Errorf("shard.visited += %d, Explain says %d", got, visited)
	}
	if got := diff.Get("shard.skipped"); got != uint64(shards*queries-visited) {
		t.Errorf("shard.skipped += %d, want %d", got, shards*queries-visited)
	}
	if visited == shards*queries {
		t.Error("no query skipped a shard of two far-apart clusters")
	}
}
