package knn

import (
	"math/rand"
	"sort"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/sstree"
	"hyperdom/internal/tree"
)

func randItems(rng *rand.Rand, d, n int, maxR float64) []Item {
	items := make([]Item, n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		items[i] = Item{Sphere: geom.NewSphere(c, rng.Float64()*maxR), ID: i}
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

func index(items []Item, d int) Index { return WrapSSTree(ssTree(items, d)) }

func ssTree(items []Item, d int) *sstree.Tree {
	t := sstree.New(d, tree.WithMaxFill(16))
	for _, it := range items {
		t.Insert(it)
	}
	return t
}

func sortedIDs(items []Item) []int {
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Ints(ids)
	return ids
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBruteForceHandCase pins Definition 2 on a tiny example: points on a
// line at 0, 10, 20, 30 with a point query at 0.
func TestBruteForceHandCase(t *testing.T) {
	var items []Item
	for i, x := range []float64{0, 10, 20, 30} {
		items = append(items, Item{Sphere: geom.NewSphere([]float64{x}, 0), ID: i})
	}
	sq := geom.NewSphere([]float64{0}, 0)
	res := BruteForce(items, sq, 2, dominance.Exact{})
	// Sk = item 1 (MaxDist 10). Items 2 and 3 are dominated (points,
	// strictly farther); items 0 and 1 are kept.
	if !equalIDs(sortedIDs(res.Items), []int{0, 1}) {
		t.Errorf("answer IDs = %v, want [0 1]", sortedIDs(res.Items))
	}
}

// TestBruteForceFatQueryKeepsMore: with an uncertain (fat) query, objects
// beyond the k-th can survive because Sk no longer dominates them.
func TestBruteForceFatQueryKeepsMore(t *testing.T) {
	var items []Item
	for i, x := range []float64{0, 10, 12, 200} {
		items = append(items, Item{Sphere: geom.NewSphere([]float64{x, 0}, 1), ID: i})
	}
	sq := geom.NewSphere([]float64{0, 0}, 8)
	res := BruteForce(items, sq, 2, dominance.Exact{})
	ids := sortedIDs(res.Items)
	// Item 2 at x=12 is nearly tied with item 1 at x=10: the fat query
	// cannot separate them, so 0, 1, 2 all stay; 200 is clearly dominated.
	if !equalIDs(ids, []int{0, 1, 2}) {
		t.Errorf("answer IDs = %v, want [0 1 2]", ids)
	}
}

func TestBruteForceSmallDatabase(t *testing.T) {
	items := randItems(rand.New(rand.NewSource(1)), 3, 5, 2)
	sq := randQuery(rand.New(rand.NewSource(2)), 3, 2)
	res := BruteForce(items, sq, 10, dominance.Exact{})
	if len(res.Items) != 5 {
		t.Errorf("k > |D| must return the whole database; got %d items", len(res.Items))
	}
}

func TestBruteForcePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	BruteForce(nil, geom.NewSphere([]float64{0}, 0), 0, dominance.Exact{})
}

// TestTreeSearchMatchesBruteForceHyperbola: with the optimal criterion,
// DF and HS over the SS-tree must return exactly the ground truth.
func TestTreeSearchMatchesBruteForceHyperbola(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range []int{2, 4, 8} {
		for _, mu := range []float64{0.5, 3, 8} {
			items := randItems(rng, d, 2000, mu)
			idx := index(items, d)
			for _, k := range []int{1, 5, 20} {
				for trial := 0; trial < 10; trial++ {
					sq := randQuery(rng, d, mu)
					want := BruteForce(items, sq, k, dominance.Hyperbola{})
					for _, algo := range []Algorithm{DF, HS} {
						got := Search(idx, sq, k, dominance.Hyperbola{}, algo)
						if !equalIDs(sortedIDs(got.Items), sortedIDs(want.Items)) {
							t.Fatalf("d=%d mu=%v k=%d %v: got %d items %v, want %d items %v",
								d, mu, k, algo, len(got.Items), sortedIDs(got.Items),
								len(want.Items), sortedIDs(want.Items))
						}
					}
				}
			}
		}
	}
}

// TestTreeSearchSupersetWithCorrectCriteria: correct-but-unsound criteria
// must return a superset of the truth (perfect recall, possibly imperfect
// precision) under both strategies.
func TestTreeSearchSupersetWithCorrectCriteria(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	criteria := []dominance.Criterion{dominance.MinMax{}, dominance.MBR{}, dominance.GP{}}
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(5)
		items := randItems(rng, d, 1500, 6)
		idx := index(items, d)
		sq := randQuery(rng, d, 6)
		k := 1 + rng.Intn(20)
		truth := map[int]bool{}
		for _, it := range BruteForce(items, sq, k, dominance.Exact{}).Items {
			truth[it.ID] = true
		}
		for _, crit := range criteria {
			for _, algo := range []Algorithm{DF, HS} {
				got := Search(idx, sq, k, crit, algo)
				seen := map[int]bool{}
				for _, it := range got.Items {
					seen[it.ID] = true
				}
				for id := range truth {
					if !seen[id] {
						t.Fatalf("trial=%d %s/%v dropped true answer item %d (recall < 100%%)",
							trial, crit.Name(), algo, id)
					}
				}
			}
		}
	}
}

// TestResultsSortedByMaxDist: answers come back ordered.
func TestResultsSortedByMaxDist(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	items := randItems(rng, 3, 500, 3)
	idx := index(items, 3)
	sq := randQuery(rng, 3, 3)
	res := Search(idx, sq, 10, dominance.Hyperbola{}, HS)
	for i := 1; i < len(res.Items); i++ {
		if geom.MaxDist(res.Items[i-1].Sphere, sq) > geom.MaxDist(res.Items[i].Sphere, sq)+1e-12 {
			t.Fatal("result items not sorted by MaxDist")
		}
	}
}

// TestHSVisitsNoMoreNodesThanDF: best-first is at least as node-frugal as
// depth-first on the same tree and query.
func TestHSVisitsNoMoreNodesThanDF(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	items := randItems(rng, 4, 5000, 2)
	idx := index(items, 4)
	worse := 0
	for trial := 0; trial < 20; trial++ {
		sq := randQuery(rng, 4, 2)
		df := Search(idx, sq, 10, dominance.Hyperbola{}, DF)
		hs := Search(idx, sq, 10, dominance.Hyperbola{}, HS)
		if hs.Stats.NodesVisited > df.Stats.NodesVisited {
			worse++
		}
	}
	// HS is optimal in nodes visited for plain kNN; with the dominance
	// list the guarantee is heuristic, so allow a couple of exceptions.
	if worse > 4 {
		t.Errorf("HS visited more nodes than DF in %d/20 trials", worse)
	}
}

func TestSearchSmallIndex(t *testing.T) {
	// Fewer items than k: the whole database is the answer under every
	// strategy.
	items := randItems(rand.New(rand.NewSource(47)), 3, 7, 2)
	idx := index(items, 3)
	sq := randQuery(rand.New(rand.NewSource(48)), 3, 2)
	for _, algo := range []Algorithm{DF, HS} {
		res := Search(idx, sq, 20, dominance.Hyperbola{}, algo)
		if len(res.Items) != 7 {
			t.Errorf("%v: got %d items, want all 7", algo, len(res.Items))
		}
	}
}

func TestSearchEmptyIndex(t *testing.T) {
	idx := WrapSSTree(sstree.New(3))
	res := Search(idx, geom.NewSphere([]float64{0, 0, 0}, 1), 5, dominance.Hyperbola{}, DF)
	if len(res.Items) != 0 {
		t.Errorf("empty index returned %d items", len(res.Items))
	}
}

func TestAlgorithmString(t *testing.T) {
	if DF.String() != "DF" || HS.String() != "HS" {
		t.Error("Algorithm String broken")
	}
	if Algorithm(9).String() != "Algorithm(9)" {
		t.Errorf("unknown algorithm String = %s", Algorithm(9).String())
	}
}

// TestPrecisionOrdering: on fat-radius workloads, Hyperbola precision is 1
// and the unsound criteria admit extra items (precision < 1 at least once
// over the workload).
func TestPrecisionOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	d := 4
	items := randItems(rng, d, 2000, 10)
	idx := index(items, d)
	extras := map[string]int{}
	for trial := 0; trial < 30; trial++ {
		sq := randQuery(rng, d, 10)
		truth := BruteForce(items, sq, 10, dominance.Exact{})
		for _, crit := range []dominance.Criterion{dominance.Hyperbola{}, dominance.MinMax{}, dominance.MBR{}, dominance.GP{}} {
			got := Search(idx, sq, 10, crit, HS)
			extras[crit.Name()] += len(got.Items) - len(truth.Items)
			if len(got.Items) < len(truth.Items) {
				t.Fatalf("%s returned fewer items than the truth", crit.Name())
			}
		}
	}
	if extras["Hyperbola"] != 0 {
		t.Errorf("Hyperbola admitted %d extra items; precision must be 100%%", extras["Hyperbola"])
	}
	for _, name := range []string{"MinMax", "MBR", "GP"} {
		if extras[name] == 0 {
			t.Errorf("%s admitted no extra items on a fat workload; expected imperfect precision", name)
		}
	}
}
