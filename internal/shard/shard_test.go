package shard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hyperdom/internal/dataset"
	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/sstree"
	"hyperdom/internal/tree"
)

func randItems(rng *rand.Rand, d, n int, maxR float64) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		items[i] = geom.Item{Sphere: geom.NewSphere(c, rng.Float64()*maxR), ID: i}
	}
	return items
}

func randQuery(rng *rand.Rand, d int, maxR float64) geom.Sphere {
	c := make([]float64, d)
	for j := range c {
		c[j] = 100 + rng.NormFloat64()*25
	}
	return geom.NewSphere(c, rng.Float64()*maxR)
}

// singleIndex builds one frozen SS-tree over all items — the oracle every
// sharded answer must match bit for bit.
func singleIndex(items []geom.Item, d int) knn.Index {
	t := sstree.New(d, tree.WithMaxFill(16))
	for _, it := range items {
		t.Insert(it)
	}
	if len(items) > 0 {
		t.Freeze()
	}
	return knn.WrapSSTree(t)
}

func sameItems(t *testing.T, ctx string, got, want []geom.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: item %d has ID %d, want %d", ctx, i, got[i].ID, want[i].ID)
		}
	}
}

// TestShardedMatchesSingle locks the acceptance criterion of the sharded
// index: for every substrate, traversal strategy and
// quantization tier, the sharded result set is bit-identical (same IDs,
// same order) to a single-index search over the same data.
func TestShardedMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const d, n = 3, 900
	items := randItems(rng, d, n, 3)
	oracle := singleIndex(items, d)
	defer knn.SetQuantMode(knn.SetQuantMode(knn.QuantF32)) // restore on exit
	for _, substrate := range []string{"sstree", "mtree", "rtree"} {
		for _, algo := range []knn.Algorithm{knn.DF, knn.HS} {
			for _, shards := range []int{2, 3, 5} {
				x, err := Build(items, d, Options{
					Shards:    shards,
					Substrate: substrate,
					MaxFill:   16,
					Algorithm: algo,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, quant := range []knn.QuantMode{knn.QuantNone, knn.QuantF32, knn.QuantI8} {
					knn.SetQuantMode(quant)
					for q := 0; q < 20; q++ {
						sq := randQuery(rng, d, 3)
						k := 1 + rng.Intn(15)
						want := knn.Search(oracle, sq, k, dominance.Hyperbola{}, algo)
						got := x.Search(sq, k)
						ctx := substrate + "/" + algo.String()
						sameItems(t, ctx, got.Items, want.Items)
						if got.K != k {
							t.Fatalf("%s: K = %d, want %d", ctx, got.K, k)
						}
					}
				}
				x.Close()
			}
		}
	}
}

// TestShardedStatsDeterministic pins that Stats — the traversal work over
// the visited shards plus the final filter — is a function of the query:
// one goroutine walks the shards in an order the query fixes, so asking
// again gives the same counts.
func TestShardedStatsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	const d = 3
	items := randItems(rng, d, 600, 3)
	x, err := Build(items, d, Options{
		Shards:    4,
		Substrate: "sstree",
		Algorithm: knn.HS,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for q := 0; q < 10; q++ {
		sq := randQuery(rng, d, 3)
		first := x.Search(sq, 7)
		for rep := 0; rep < 3; rep++ {
			again := x.Search(sq, 7)
			if again.Stats != first.Stats {
				t.Fatalf("query %d: stats %+v then %+v", q, first.Stats, again.Stats)
			}
			sameItems(t, "rerun", again.Items, first.Items)
		}
		if first.Stats.DomChecks == 0 && len(items) > 7 {
			t.Fatalf("query %d: the final filter ran no dominance checks", q)
		}
	}
}

// TestShardedSmallDatabases covers the degenerate shapes: empty dataset,
// fewer items than k, fewer items than shards.
func TestShardedSmallDatabases(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	const d = 2
	for _, n := range []int{0, 1, 3, 7} {
		items := randItems(rng, d, n, 2)
		x, err := Build(items, d, Options{Shards: 4, Algorithm: knn.HS})
		if err != nil {
			t.Fatal(err)
		}
		oracle := singleIndex(items, d)
		for q := 0; q < 5; q++ {
			sq := randQuery(rng, d, 2)
			k := 1 + rng.Intn(10)
			want := knn.Search(oracle, sq, k, dominance.Hyperbola{}, knn.HS)
			got := x.Search(sq, k)
			sameItems(t, "small", got.Items, want.Items)
		}
		x.Close()
	}
}

// TestPartitionBalance pins the planner's contract: shards differ in size
// by at most the rounding slack of the recursive proportional cuts, are
// disjoint, and cover every item.
func TestPartitionBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, n := range []int{1, 10, 1000, 4096} {
		for _, shards := range []int{1, 2, 3, 7, 8} {
			items := randItems(rng, 4, n, 1)
			parts, plan := partition(items, 4, shards, 256)
			if plan == nil {
				t.Fatalf("n=%d shards=%d: nil plan", n, shards)
			}
			if len(parts) != shards {
				t.Fatalf("n=%d shards=%d: got %d parts", n, shards, len(parts))
			}
			seen := make(map[int]bool, n)
			lo, hi := n, 0
			for _, p := range parts {
				if len(p) < lo {
					lo = len(p)
				}
				if len(p) > hi {
					hi = len(p)
				}
				for _, it := range p {
					if seen[it.ID] {
						t.Fatalf("n=%d shards=%d: item %d in two shards", n, shards, it.ID)
					}
					seen[it.ID] = true
				}
			}
			if len(seen) != n {
				t.Fatalf("n=%d shards=%d: covered %d items", n, shards, len(seen))
			}
			if n >= shards && hi-lo > shards {
				t.Fatalf("n=%d shards=%d: shard sizes range [%d, %d]", n, shards, lo, hi)
			}
		}
	}
}

// TestShardedConcurrentQueries hammers one sharded index from many
// goroutines — under -race this is the detector run for whatever concurrent
// searches share (the trees, the scratch pool) — and checks every answer
// against the single-index oracle.
func TestShardedConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	const d, n = 3, 800
	items := randItems(rng, d, n, 3)
	oracle := singleIndex(items, d)
	x, err := Build(items, d, Options{Shards: 4, Algorithm: knn.HS})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	type cq struct {
		sq geom.Sphere
		k  int
	}
	queries := make([]cq, 64)
	want := make([]knn.Result, len(queries))
	for i := range queries {
		queries[i] = cq{randQuery(rng, d, 3), 1 + rng.Intn(12)}
		want[i] = knn.Search(oracle, queries[i].sq, queries[i].k, dominance.Hyperbola{}, knn.HS)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += 8 {
				got := x.Search(queries[i].sq, queries[i].k)
				if len(got.Items) != len(want[i].Items) {
					t.Errorf("query %d: %d items, want %d", i, len(got.Items), len(want[i].Items))
					return
				}
				for j := range got.Items {
					if got.Items[j].ID != want[i].Items[j].ID {
						t.Errorf("query %d: item %d mismatch", i, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBuildRejectsBadOptions pins the Build validation surface.
func TestBuildRejectsBadOptions(t *testing.T) {
	if _, err := Build(nil, 0, Options{}); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := Build(nil, 2, Options{Substrate: "btree"}); err == nil {
		t.Fatal("unknown substrate accepted")
	}
}

// TestBuildRejectsBadItems: items reach Build from outside (a CSV, the root
// package's BuildSharded), so a wrong-dimension or non-finite one must come
// back as an error — it used to be an index-out-of-range in the partition
// planner or a panic out of the substrate's Insert.
func TestBuildRejectsBadItems(t *testing.T) {
	good := func(id int) geom.Item {
		return geom.Item{ID: id, Sphere: geom.Sphere{Center: []float64{float64(id), 1, 2}, Radius: 0.5}}
	}
	for name, bad := range map[string]geom.Sphere{
		"short center":    {Center: []float64{1, 2}, Radius: 0.5},
		"long center":     {Center: []float64{1, 2, 3, 4}, Radius: 0.5},
		"empty center":    {},
		"NaN coord":       {Center: []float64{1, math.NaN(), 3}, Radius: 0.5},
		"Inf coord":       {Center: []float64{1, 2, math.Inf(1)}, Radius: 0.5},
		"NaN radius":      {Center: []float64{1, 2, 3}, Radius: math.NaN()},
		"negative radius": {Center: []float64{1, 2, 3}, Radius: -1},
	} {
		for _, substrate := range []string{"sstree", "mtree", "rtree"} {
			items := []geom.Item{good(0), good(1), {ID: 2, Sphere: bad}, good(3)}
			x, err := Build(items, 3, Options{Shards: 2, Substrate: substrate})
			if err == nil {
				x.Close()
				t.Errorf("%s/%s: accepted", name, substrate)
			}
		}
	}
	x, err := Build([]geom.Item{good(0), good(1), good(2), good(3)}, 3, Options{Shards: 2})
	if err != nil {
		t.Fatalf("well-formed items rejected: %v", err)
	}
	x.Close()
}

// orMinMax is crit strengthened by Lemma 9, the proof traversals discard
// by before any criterion call.
type orMinMax struct{ dominance.Criterion }

func (c orMinMax) Dominates(sa, sb, sq geom.Sphere) bool {
	return dominance.MinMax{}.Dominates(sa, sb, sq) || c.Criterion.Dominates(sa, sb, sq)
}

// subsequence reports whether sub's IDs occur in seq in order.
func subsequence(sub, seq []geom.Item) bool {
	for _, it := range seq {
		if len(sub) > 0 && sub[0].ID == it.ID {
			sub = sub[1:]
		}
	}
	return len(sub) == 0
}

// TestShardedDifferentialMatrix is the sharded half of the answer lock (see
// knn.TestDifferentialMatrix): every criterion × shard count × traversal ×
// k against BruteForce — ids AND order — on a random fixture and on one
// whose lattice centers and equal radii make MaxDist ties, broken by ID,
// common across shard boundaries too. A criterion that subsumes MinMax must
// return BruteForce's answer exactly at every shard count; one that does not
// (MBR, GP) an ordered answer between BruteForce with and without Lemma 9's
// help, since what Case 3 drops unasked depends on the layout.
func TestShardedDifferentialMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	const d, n = 3, 600
	ties := make([]geom.Item, n)
	for i := range ties {
		c := []float64{float64(rng.Intn(7)), float64(rng.Intn(7)), float64(rng.Intn(7))}
		ties[i] = geom.Item{Sphere: geom.NewSphere(c, 0.25), ID: i}
	}
	fixtures := []struct {
		name  string
		items []geom.Item
		q     []geom.Sphere
	}{
		{"random", randItems(rng, d, n, 4), []geom.Sphere{randQuery(rng, d, 4), randQuery(rng, d, 0)}},
		{"ties", ties, []geom.Sphere{geom.NewSphere([]float64{3, 3, 3}, 0.5), geom.NewSphere([]float64{0, 6, 2}, 0)}},
	}
	crits := []dominance.Criterion{dominance.Hyperbola{}, dominance.Exact{}, dominance.MinMax{}, dominance.MBR{}, dominance.GP{}}
	for _, fx := range fixtures {
		for _, crit := range crits {
			for _, shards := range []int{1, 2, 4, 7} {
				for _, algo := range []knn.Algorithm{knn.DF, knn.HS} {
					x, err := Build(fx.items, d, Options{Shards: shards, MaxFill: 16, Algorithm: algo, Criterion: crit})
					if err != nil {
						t.Fatal(err)
					}
					for qi, sq := range fx.q {
						for _, k := range []int{1, 10, 100, n + 5} {
							hi := knn.BruteForce(fx.items, sq, k, crit).Items
							lo := knn.BruteForce(fx.items, sq, k, orMinMax{crit}).Items
							got := x.Search(sq, k).Items
							ctx := fmt.Sprintf("%s/%s/shards=%d/%v q%d k=%d", fx.name, crit.Name(), shards, algo, qi, k)
							if crit.Sound() || crit.Name() == "MinMax" {
								sameItems(t, ctx, got, hi)
							} else if !subsequence(lo, got) || !subsequence(got, hi) {
								t.Fatalf("%s: %d items, not an ordered set between BruteForce's %d and %d", ctx, len(got), len(lo), len(hi))
							}
						}
					}
					x.Close()
				}
			}
		}
	}
}

// twoClusters is n items around the origin and n around (far, 0): a
// 2-shard partition cuts between them.
func twoClusters(rng *rand.Rand, n int, far float64) []geom.Item {
	items := make([]geom.Item, 0, 2*n)
	for _, cx := range []float64{0, far} {
		for i := 0; i < n; i++ {
			c := []float64{cx + rng.NormFloat64(), rng.NormFloat64()}
			items = append(items, geom.Item{Sphere: geom.NewSphere(c, rng.Float64()*0.1), ID: len(items)})
		}
	}
	return items
}

// TestForestSkipsFarShards pins the region skip and its limit. A query
// inside one of two well-separated clusters opens only the shards of that
// cluster — the others' root bounds exceed distK once k near items are
// held — and still answers what BruteForce answers. The adversarial twin
// puts one sphere in the far cluster whose radius reaches the query: its
// shard's root bound is then within distK, so the shard must be opened, and
// the sphere — not dominated by Sk, which it overlaps — must be in the
// answer.
func TestForestSkipsFarShards(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const n, far, k = 200, 1000.0, 5
	plain := twoClusters(rng, n, far)
	huge := append([]geom.Item(nil), plain...)
	hugeID := 2*n - 1
	huge[hugeID].Sphere = geom.NewSphere(huge[hugeID].Sphere.Center, far)
	sq := geom.NewSphere([]float64{0.1, -0.2}, 0.05)
	for _, algo := range []knn.Algorithm{knn.DF, knn.HS} {
		for _, shards := range []int{2, 4} {
			x, err := Build(plain, 2, Options{Shards: shards, Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			res, ex := x.SearchExplain(sq, k)
			sameItems(t, "separated clusters", res.Items, knn.BruteForce(plain, sq, k, dominance.Hyperbola{}).Items)
			if got := ex.Visited(); got < 1 || got > shards/2 {
				t.Errorf("%v, %d shards: visited %d, want only the near cluster's (≤ %d)", algo, shards, got, shards/2)
			}
			for i, sp := range ex.Shards {
				if i >= shards/2 && !sp.Skipped {
					t.Errorf("%v, %d shards: far shard %d was opened", algo, shards, i)
				}
				if sp.Skipped && (sp.Order != -1 || sp.LatencyNs != 0 || sp.NodesVisited != 0 || sp.Candidates != 0) {
					t.Errorf("%v, %d shards: skipped shard %d reports work: %+v", algo, shards, i, sp)
				}
			}
			x.Close()

			x, err = Build(huge, 2, Options{Shards: shards, Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			res, ex = x.SearchExplain(sq, k)
			sameItems(t, "huge far sphere", res.Items, knn.BruteForce(huge, sq, k, dominance.Hyperbola{}).Items)
			if !slices.Contains(res.IDs(), hugeID) {
				t.Errorf("%v, %d shards: the far sphere that reaches the query is missing from the answer", algo, shards)
			}
			if !slices.ContainsFunc(ex.Shards[shards/2:], func(sp obs.ShardSpan) bool { return !sp.Skipped }) {
				t.Errorf("%v, %d shards: the shard holding the far sphere was skipped", algo, shards)
			}
			x.Close()
		}
	}
}

// TestForestOpensHomeShardFirst pins what orders shards whose bounds all
// touch the query, the usual case inside one cloud of data: the shard the
// query's center was partitioned into should nearly always be opened first,
// so that the other shards are searched under a distK that is already tight.
// Shard order, which a plain MinDist tie would fall back to, gets one query
// in four right here.
func TestForestOpensHomeShardFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	const d, n, shards = 3, 4000, 4
	items := randItems(rng, d, n, 1)
	x, err := Build(items, d, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	const queries = 200
	homeFirst := 0
	for _, it := range items[:queries] {
		home := x.plan
		for home.Left != nil {
			if it.Sphere.Center[home.Dim] < home.Cut {
				home = home.Left
			} else {
				home = home.Right
			}
		}
		_, ex := x.SearchExplain(it.Sphere, 5)
		if ex.Shards[home.Shard].Order == 0 {
			homeFirst++
		}
	}
	if homeFirst < queries*9/10 {
		t.Errorf("the home shard was opened first for %d of %d queries, want ≥ 90%%", homeFirst, queries)
	}
}

// TestEmptyShardSkipped pins the degenerate forest: with fewer items than
// shards some trees are empty; they are reported skipped, and the answer is
// the whole database in order.
func TestEmptyShardSkipped(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	items := randItems(rng, 2, 3, 1)
	for _, algo := range []knn.Algorithm{knn.DF, knn.HS} {
		x, err := Build(items, 2, Options{Shards: 5, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		sq := randQuery(rng, 2, 1)
		res, ex := x.SearchExplain(sq, 10)
		sameItems(t, "k ≥ n", res.Items, knn.BruteForce(items, sq, 10, dominance.Hyperbola{}).Items)
		for i, sp := range ex.Shards {
			if sp.Skipped != (sp.Items == 0) {
				t.Errorf("%v: shard %d holds %d items, skipped=%v", algo, i, sp.Items, sp.Skipped)
			}
		}
		x.Close()
	}
}

// TestSearchAllocs gates the allocation budget and its shape: a search
// costs the scratch-pool round trip and the answer slice — plus the Explain
// and its span slice when asked for — whatever the shard count.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	rng := rand.New(rand.NewSource(84))
	const d, n = 3, 2000
	items := randItems(rng, d, n, 2)
	for _, shards := range []int{1, 2, 4, 7} {
		x, err := Build(items, d, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{5, 100} {
			sq := randQuery(rng, d, 1)
			if got := testing.AllocsPerRun(100, func() { x.Search(sq, k) }); got > 3 {
				t.Errorf("%d shards, k=%d: Search %v allocs/query, budget 3", shards, k, got)
			}
			if got := testing.AllocsPerRun(100, func() { x.SearchExplain(sq, k) }); got > 4 {
				t.Errorf("%d shards, k=%d: SearchExplain %v allocs/query, budget 4", shards, k, got)
			}
		}
		x.Close()
	}
}

// BenchmarkBuild builds the scan_d10-shaped corpus of the serving benchmark
// (100k items, d = 10, 2 shards — the corpus dataset.BenchmarkLoadCSV reads);
// run it with -cpu 1,2: one core must not pay for the goroutines.
func BenchmarkBuild(b *testing.B) {
	items := dataset.Spheres(dataset.SyntheticCenters(100_000, 10, dataset.Gaussian, 1), dataset.GaussianRadii(1), 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := Build(items, 10, Options{Shards: 2, Algorithm: knn.HS})
		if err != nil {
			b.Fatal(err)
		}
		x.Close()
	}
}
