package knn

import (
	"fmt"
	"math/rand"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/mtree"
	"hyperdom/internal/rtree"
	"hyperdom/internal/sstree"
)

// searchAllocBudget is the steady-state allocations-per-search ceiling for
// the tree traversals on any substrate. The only mandatory allocation is the
// answer slice handed to the caller; the budget leaves room for incidental
// growth (a pool miss after GC, a first-time buffer resize) without letting
// per-node allocation creep back in — the old traversal allocated child
// slices, dist slices, order permutations, sort closures and heap boxes on
// every node visit, hundreds per search.
const searchAllocBudget = 8

// allocCorpus draws the n items and 16 queries the allocation and
// benchmark tests share.
func allocCorpus(n int) ([]Item, []geom.Sphere) {
	rng := rand.New(rand.NewSource(7001))
	d := 8
	sphere := func() geom.Sphere {
		c := make([]float64, d)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		return geom.NewSphere(c, rng.Float64()*2)
	}
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Sphere: sphere(), ID: i}
	}
	queries := make([]geom.Sphere, 16)
	for i := range queries {
		queries[i] = sphere()
	}
	return items, queries
}

// allocFixture builds the 10k-item SS-tree the allocation and benchmark
// tests share.
func allocFixture(n int) (Index, []geom.Sphere) {
	items, queries := allocCorpus(n)
	t := sstree.New(8)
	for _, it := range items {
		t.Insert(it)
	}
	return WrapSSTree(t), queries
}

// TestSearchAllocs is the allocation regression gate of the zero-allocation
// kernel: a steady-state pointer Search over a 10k-item tree must stay
// within searchAllocBudget for every substrate and both traversal
// strategies. The M-tree and R-tree adapters used to copy each expanded
// node's children into a fresh slice (40 and 32–33 allocs per search on
// this corpus); the one cursor reads children by index.
func TestSearchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-item fixture")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	items, queries := allocCorpus(10000)
	ss, mt, rt := sstree.New(8), mtree.New(8), rtree.New(8)
	for _, it := range items {
		ss.Insert(it)
		mt.Insert(it)
		rt.Insert(it)
	}
	for _, sub := range []struct {
		name string
		idx  Index
	}{{"sstree", WrapSSTree(ss)}, {"mtree", WrapMTree(mt)}, {"rtree", WrapRTree(rt)}} {
		for _, algo := range []Algorithm{DF, HS} {
			idx, algo := sub.idx, algo
			name := algo.String()
			if sub.name != "sstree" { // the SS rows keep the names they have always had
				name = sub.name + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				q := 0
				// Warm the scratch pool and the arena capacities first so the
				// measurement sees the steady state, not the first-use growth.
				for i := 0; i < 4; i++ {
					Search(idx, queries[i], 10, dominance.Hyperbola{}, algo)
				}
				allocs := testing.AllocsPerRun(64, func() {
					Search(idx, queries[q%len(queries)], 10, dominance.Hyperbola{}, algo)
					q++
				})
				if allocs > searchAllocBudget {
					t.Errorf("%.1f allocs per search, budget %d", allocs, searchAllocBudget)
				}
			})
		}
	}
}

// TestSearchAllocsPacked holds the frozen (packed SoA) traversal to the
// same steady-state budget as the pointer path: the streaming kernels write
// into scratch-owned buffers, so freezing must not reintroduce per-node
// allocation.
func TestSearchAllocsPacked(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-item fixture")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	idx, queries := allocFixture(10000)
	idx.(treeAdapter).t.Freeze()
	for _, algo := range []Algorithm{DF, HS} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			q := 0
			for i := 0; i < 4; i++ {
				Search(idx, queries[i], 10, dominance.Hyperbola{}, algo)
			}
			allocs := testing.AllocsPerRun(64, func() {
				Search(idx, queries[q%len(queries)], 10, dominance.Hyperbola{}, algo)
				q++
			})
			if allocs > searchAllocBudget {
				t.Errorf("%v packed: %.1f allocs per search, budget %d", algo, allocs, searchAllocBudget)
			}
		})
	}
}

// BenchmarkSearch measures the kNN traversals over the 10k-item SS-tree —
// the figures BENCH_knn.json tracks across PRs.
func BenchmarkSearch(b *testing.B) {
	idx, queries := allocFixture(10000)
	for _, algo := range []Algorithm{DF, HS} {
		algo := algo
		b.Run(fmt.Sprintf("SS10k/%v", algo), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Search(idx, queries[i%len(queries)], 10, dominance.Hyperbola{}, algo)
			}
		})
	}
}

// BenchmarkSearchPacked is BenchmarkSearch over the frozen snapshot — the
// single-thread packed-layout win BENCH_knn.json records as
// speedup_packed_layout.
func BenchmarkSearchPacked(b *testing.B) {
	idx, queries := allocFixture(10000)
	idx.(treeAdapter).t.Freeze()
	for _, algo := range []Algorithm{DF, HS} {
		algo := algo
		b.Run(fmt.Sprintf("SS10k/%v", algo), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Search(idx, queries[i%len(queries)], 10, dominance.Hyperbola{}, algo)
			}
		})
	}
}
