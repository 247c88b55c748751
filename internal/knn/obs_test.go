package knn

import (
	"math/rand"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/obs"
)

// TestObsSearchCounters verifies the traversal accounting: a tree search
// publishes its Stats and heap tallies into the registry, attributed to the
// right substrate, and publishes nothing while the gate is off. The
// registry is zeroed up front (obs.ResetForTest) so the assertions read
// absolute values instead of diffing snapshots.
func TestObsSearchCounters(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)

	rng := rand.New(rand.NewSource(99))
	items := randItems(rng, 4, 800, 2)
	idx := index(items, 4)
	q := randQuery(rng, 4, 1)

	const searches = 5
	obs.ResetForTest()
	var res Result
	for i := 0; i < searches; i++ {
		res = Search(idx, q, 10, dominance.Hyperbola{}, HS)
	}
	got := obs.Snapshot()

	if got := got.Get("knn.searches"); got != searches {
		t.Errorf("knn.searches = %d, want %d", got, searches)
	}
	if got := got.Get("knn.searches.sstree"); got != searches {
		t.Errorf("knn.searches.sstree = %d, want %d", got, searches)
	}
	// The last search's Stats are a lower bound on the accumulated totals.
	if got := got.Get("knn.nodes_visited"); got < uint64(res.Stats.NodesVisited) {
		t.Errorf("knn.nodes_visited = %d, below one search's %d", got, res.Stats.NodesVisited)
	}
	if got := got.Get("knn.items_scanned"); got < uint64(res.Stats.Items) {
		t.Errorf("knn.items_scanned = %d, below one search's %d", got, res.Stats.Items)
	}
	if got := got.Get("knn.dom_checks"); got < uint64(res.Stats.DomChecks) {
		t.Errorf("knn.dom_checks = %d, below one search's %d", got, res.Stats.DomChecks)
	}
	if got.Get("knn.heap_pushes") == 0 || got.Get("knn.heap_pops") == 0 {
		t.Errorf("heap tallies did not move: pushes=%d pops=%d",
			got.Get("knn.heap_pushes"), got.Get("knn.heap_pops"))
	}

	obs.SetEnabled(false)
	obs.ResetForTest()
	Search(idx, q, 10, dominance.Hyperbola{}, HS)
	if moved := obs.Snapshot().Diff(obs.Snap{}); len(moved) != 0 {
		t.Errorf("counters moved while disabled: %v", moved)
	}
}

// TestObsBoxPrunes: knn.box_prunes counts the children a sphere bound
// admitted and the box bound rejected, so it moves only where there is a
// box — the packed walk over a sphere-bounded tree — and /metrics shows
// whether the second bound is doing anything.
func TestObsBoxPrunes(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)
	rng := rand.New(rand.NewSource(2402))
	const d = 5
	_, fixtures := buildFixtures(rng, d, 2000)
	q := randQuery(rng, d, 5)
	for _, fx := range fixtures {
		for _, frozen := range []bool{false, true} {
			if frozen {
				fx.freeze()
			}
			for _, algo := range []Algorithm{DF, HS} {
				obs.ResetForTest()
				Search(fx.idx, q, 10, dominance.Hyperbola{}, algo)
				got := obs.Snapshot().Get("knn.box_prunes")
				if want := frozen && fx.name != "rtree"; (got > 0) != want {
					t.Errorf("%s frozen=%v %v: knn.box_prunes = %d, want moved=%v", fx.name, frozen, algo, got, want)
				}
			}
		}
	}
}

// TestObsSearchLatency verifies the per-search latency observability: each
// search records exactly one sample into the histogram instance of its
// (substrate, strategy) pair, and the flight recorder retains the query
// with its labels, k and counter diffs.
func TestObsSearchLatency(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)

	rng := rand.New(rand.NewSource(42))
	items := randItems(rng, 4, 600, 2)
	idx := index(items, 4)
	q := randQuery(rng, 4, 1)

	const searches = 7
	obs.ResetForTest()
	var res Result
	for i := 0; i < searches; i++ {
		res = Search(idx, q, 10, dominance.Hyperbola{}, HS)
	}
	Search(idx, q, 10, dominance.Hyperbola{}, DF)

	merged := obs.MergedHist("knn.search_latency")
	if merged.Count != searches+1 {
		t.Errorf("knn.search_latency holds %d samples, want %d", merged.Count, searches+1)
	}
	if merged.Quantile(0.5) <= 0 {
		t.Error("median search latency is not positive")
	}
	hs := obs.GetOrNewHistogram("knn.search_latency", `substrate="sstree",algo="HS"`).Snap()
	if hs.Count != searches {
		t.Errorf(`sstree/HS instance holds %d samples, want %d`, hs.Count, searches)
	}
	df := obs.GetOrNewHistogram("knn.search_latency", `substrate="sstree",algo="DF"`).Snap()
	if df.Count != 1 {
		t.Errorf(`sstree/DF instance holds %d samples, want 1`, df.Count)
	}

	dump := obs.Slow.Dump()
	if len(dump) != searches+1 {
		t.Fatalf("flight recorder retains %d queries, want %d", len(dump), searches+1)
	}
	for _, r := range dump {
		if r.Substrate != "sstree" {
			t.Errorf("flight record substrate = %q, want sstree", r.Substrate)
		}
		if r.Algo != "HS" && r.Algo != "DF" {
			t.Errorf("flight record algo = %q", r.Algo)
		}
		if r.K != 10 {
			t.Errorf("flight record k = %d, want 10", r.K)
		}
		if r.LatencyNs <= 0 || r.WhenUnixNs <= 0 {
			t.Errorf("flight record timing not positive: %+v", r)
		}
	}
	// HS runs of the same query are deterministic, so some record carries
	// the last run's exact counter diffs.
	var matched bool
	for _, r := range dump {
		if r.Algo == "HS" && r.Nodes == uint64(res.Stats.NodesVisited) &&
			r.Items == uint64(res.Stats.Items) && r.DomChecks == uint64(res.Stats.DomChecks) {
			matched = true
			break
		}
	}
	if !matched {
		t.Errorf("no flight record matches the last search's Stats %+v", res.Stats)
	}

	// Gate off: no latency samples, no flight records.
	obs.SetEnabled(false)
	obs.ResetForTest()
	Search(idx, q, 10, dominance.Hyperbola{}, HS)
	if n := obs.MergedHist("knn.search_latency").Count; n != 0 {
		t.Errorf("search_latency recorded %d samples with the gate off", n)
	}
	if dump := obs.Slow.Dump(); len(dump) != 0 {
		t.Errorf("flight recorder admitted %d queries with the gate off", len(dump))
	}
}

// TestObsBruteForceCounters checks the non-tree path publishes too,
// including its latency histogram instance and flight record.
func TestObsBruteForceCounters(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)

	rng := rand.New(rand.NewSource(7))
	items := randItems(rng, 3, 200, 2)
	q := randQuery(rng, 3, 1)

	obs.ResetForTest()
	res := BruteForce(items, q, 5, dominance.Hyperbola{})
	got := obs.Snapshot()

	if got := got.Get("knn.brute_force_searches"); got != 1 {
		t.Errorf("knn.brute_force_searches = %d, want 1", got)
	}
	if got := got.Get("knn.items_scanned"); got != uint64(res.Stats.Items) {
		t.Errorf("knn.items_scanned = %d, want %d", got, res.Stats.Items)
	}
	if n := obs.GetOrNewHistogram("knn.search_latency", `substrate="brute",algo="scan"`).Snap().Count; n != 1 {
		t.Errorf("brute-force latency instance holds %d samples, want 1", n)
	}
	dump := obs.Slow.Dump()
	if len(dump) != 1 || dump[0].Substrate != "brute" || dump[0].Algo != "scan" || dump[0].K != 5 {
		t.Errorf("brute-force flight record wrong: %+v", dump)
	}
}
