package knn

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/mtree"
	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
	"hyperdom/internal/rtree"
	"hyperdom/internal/sstree"
	"hyperdom/internal/tree"
)

// substrateTrees inserts the same n random items into a pointer tree of
// each substrate, in tree.Substrate order; ss is the first, the SS-tree.
func substrateTrees(rng *rand.Rand, d, n int) (ss *sstree.Tree, trees []*tree.Tree) {
	ss = sstree.New(d)
	trees = []*tree.Tree{&ss.Tree, &mtree.New(d).Tree, &rtree.New(d).Tree}
	for _, it := range randItems(rng, d, n, 5) {
		for _, tr := range trees {
			tr.Insert(it)
		}
	}
	return ss, trees
}

// TestObsSearchCounters verifies the traversal accounting: a tree search
// publishes its Stats into the registry, and publishes nothing while the
// gate is off. The
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

	obs.SetEnabled(false)
	obs.ResetForTest()
	Search(idx, q, 10, dominance.Hyperbola{}, HS)
	if moved := obs.Snapshot().Diff(obs.Snap{}); len(moved) != 0 {
		t.Errorf("counters moved while disabled: %v", moved)
	}
}

// TestObsBoxPrunes: knn.box_prunes counts the children a sphere bound
// admitted and the box bound rejected, so it moves only where there is a
// box — the packed walk of an SS-tree's snapshot, not any pointer walk —
// and /metrics shows whether the second bound is doing anything.
func TestObsBoxPrunes(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)
	rng := rand.New(rand.NewSource(2402))
	const d = 5
	ss, trees := substrateTrees(rng, d, 2000)
	q := randQuery(rng, d, 5)
	idxs := []Index{WrapPacked(ss.Freeze())}
	for _, tr := range trees {
		idxs = append(idxs, Index{t: tr})
	}
	for _, idx := range idxs {
		for _, algo := range []Algorithm{DF, HS} {
			obs.ResetForTest()
			Search(idx, q, 10, dominance.Hyperbola{}, algo)
			got := obs.Snapshot().Get("knn.box_prunes")
			if packedWalk := idx.p != nil; (got > 0) != packedWalk {
				t.Errorf("packed=%v %v: knn.box_prunes = %d, want moved=%v", packedWalk, algo, got, packedWalk)
			}
		}
	}
}

// TestForestSearchCountsWorkOnly: a forest search adds its work to the
// knn.* counters, and no knn counter counts searches: the served search
// that runs it is counted once, by shard.search_latency.
func TestForestSearchCountsWorkOnly(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)
	rng := rand.New(rand.NewSource(808))
	const d = 3
	items := randItems(rng, d, 600, 2)
	forest := []*packed.Tree{ssTree(items[:300], d).Freeze(), ssTree(items[300:], d).Freeze()}
	q := randQuery(rng, d, 1)

	obs.ResetForTest()
	res, _ := SearchForest(forest, q, 10, nil)
	snap := obs.Snapshot()
	if got := snap.Get("knn.nodes_visited"); got != uint64(res.Stats.NodesVisited) {
		t.Errorf("knn.nodes_visited = %d, Stats says %d", got, res.Stats.NodesVisited)
	}
	for name := range obs.Snapshot() {
		if strings.HasPrefix(name, "knn.searches") {
			t.Errorf("the registry holds %s: searches are counted by the served layer only", name)
		}
	}
}

// TestObsBruteForceCounters checks the non-tree path publishes its work
// too and records no op.
func TestObsBruteForceCounters(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)

	rng := rand.New(rand.NewSource(7))
	items := randItems(rng, 3, 200, 2)
	q := randQuery(rng, 3, 1)

	obs.ResetForTest()
	res := BruteForce(items, q, 5, dominance.Hyperbola{})
	got := obs.Snapshot()

	if got := got.Get("knn.items_scanned"); got != uint64(res.Stats.Items) {
		t.Errorf("knn.items_scanned = %d, want %d", got, res.Stats.Items)
	}
	if got := got.Get("knn.dom_checks"); got != uint64(res.Stats.DomChecks) || got == 0 {
		t.Errorf("knn.dom_checks = %d, want %d", got, res.Stats.DomChecks)
	}
	if dump := obs.Slow.Dump(); len(dump) != 0 {
		t.Errorf("BruteForce left %d ops in the Slow ring, want 0", len(dump))
	}
}

// TestCountersMatchStats holds the per-search telemetry to the search's own
// accounting exactly, on every substrate and both strategies: one search
// into a zeroed registry moves knn.nodes_visited, knn.items_scanned,
// knn.pruned and knn.dom_checks by its Stats, and leaves no Slow-ring
// record. (TestObsSearchCounters only bounds the totals from below.)
func TestCountersMatchStats(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)

	rng := rand.New(rand.NewSource(4242))
	const d = 4
	_, trees := substrateTrees(rng, d, 900)
	q := randQuery(rng, d, 1)
	for _, tr := range trees {
		for _, algo := range []Algorithm{DF, HS} {
			idx, name, algo := Index{t: tr}, tr.Substrate().String(), algo
			t.Run(name+"/"+algo.String(), func(t *testing.T) {
				obs.ResetForTest()
				res := Search(idx, q, 10, dominance.Hyperbola{}, algo)
				if res.Stats.DomChecks == 0 || res.Stats.Pruned == 0 {
					t.Fatalf("fixture too easy to tell counters apart: %+v", res.Stats)
				}

				snap := obs.Snapshot()
				for _, c := range []struct {
					name string
					want int
				}{
					{"knn.nodes_visited", res.Stats.NodesVisited},
					{"knn.items_scanned", res.Stats.Items},
					{"knn.pruned", res.Stats.Pruned},
					{"knn.dom_checks", res.Stats.DomChecks},
				} {
					if got := snap.Get(c.name); got != uint64(c.want) {
						t.Errorf("%s = %d, Stats says %d", c.name, got, c.want)
					}
				}

				if dump := obs.Slow.Dump(); len(dump) != 0 {
					t.Fatalf("Slow ring holds %d records, want 0", len(dump))
				}
			})
		}
	}
}

// TestSearchShadowMode verifies a search under a dominance.Shadowed
// criterion: answers are unchanged for any primary criterion — and a plain
// search in the same process audits nothing — and the per-criterion disagreement
// counters move with the correct/sound polarity of Table 1 — correct
// criteria (MinMax, MBR, GP) may only miss prunes, the sound one
// (Trigonometric) may only report false positives.
func TestSearchShadowMode(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)

	rng := rand.New(rand.NewSource(4242))
	const d = 4
	idx := index(randItems(rng, d, 900, 2), d)
	q := randQuery(rng, d, 1)
	for _, crit := range []dominance.Criterion{dominance.Hyperbola{}, dominance.MinMax{}} {
		obs.ResetForTest()
		plain := Search(idx, q, 10, crit, HS)
		if got := obs.Snapshot().Get("dominance.shadow.checks"); got != 0 {
			t.Fatalf("%s: a plain search ran %d shadow checks", crit.Name(), got)
		}
		shadowed := Search(idx, q, 10, dominance.Shadowed{Criterion: crit}, HS)

		if len(plain.Items) != len(shadowed.Items) {
			t.Fatalf("%s: shadow mode changed the answer: %d vs %d items",
				crit.Name(), len(shadowed.Items), len(plain.Items))
		}
		for i := range plain.Items {
			if plain.Items[i].ID != shadowed.Items[i].ID {
				t.Fatalf("%s: shadow mode changed the answer at position %d", crit.Name(), i)
			}
		}

		snap := obs.Snapshot()
		if got := snap.Get("dominance.shadow.checks"); got != uint64(shadowed.Stats.DomChecks) {
			t.Errorf("%s: shadow checks = %d, DomChecks = %d", crit.Name(), got, shadowed.Stats.DomChecks)
		}
		var disagreements uint64
		for _, name := range []string{"MinMax", "MBR", "GP", "Trigonometric"} {
			disagreements += snap.Get("dominance.shadow.missed_prune."+name) +
				snap.Get("dominance.shadow.false_positive."+name)
		}
		if disagreements == 0 {
			t.Errorf("%s: the audit counted no disagreement", crit.Name())
		}
		for _, name := range []string{"MinMax", "MBR", "GP"} {
			if got := snap.Get("dominance.shadow.false_positive." + name); got != 0 {
				t.Errorf("%s: correct criterion %s reported %d false positives", crit.Name(), name, got)
			}
		}
		if got := snap.Get("dominance.shadow.missed_prune.Trigonometric"); got != 0 {
			t.Errorf("%s: sound criterion Trigonometric missed %d prunes", crit.Name(), got)
		}
	}
}

// TestSearchObsOverhead holds the instrumentation to its budget at the
// search level: with the obs gate on, a Search must cost less than 5% over
// the same binary with the gate off. Off and on rounds alternate and the
// minimum of each side is kept, as in internal/dominance: `go test ./...`
// runs packages side by side, and a neighbour that is busy through all of
// one side's rounds would otherwise be read as overhead.
func TestSearchObsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing comparison")
	}
	defer obs.SetEnabled(true)
	ss, queries := allocFixture(4000)
	idx := WrapSSTree(ss)

	round := func(enabled bool) time.Duration {
		obs.SetEnabled(enabled)
		start := time.Now()
		for rep := 0; rep < 4; rep++ {
			for _, q := range queries {
				res := Search(idx, q, 10, dominance.Hyperbola{}, HS)
				obsSink += len(res.Items)
			}
		}
		return time.Since(start)
	}

	const budget, attempts, rounds = 1.05, 3, 9
	round(false) // warm caches, pool and tree paths
	var off, on time.Duration
	for attempt := 1; attempt <= attempts; attempt++ {
		off, on = 1<<62, 1<<62
		for r := 0; r < rounds; r++ {
			off = min(off, round(false))
			on = min(on, round(true))
		}
		t.Logf("attempt %d: off=%v on=%v ratio=%.3f", attempt, off, on, float64(on)/float64(off))
		if float64(on) < float64(off)*budget {
			return
		}
	}
	t.Errorf("obs-on overhead %.1f%% exceeds %.0f%% budget",
		(float64(on)/float64(off)-1)*100, (budget-1)*100)
}

var obsSink int
