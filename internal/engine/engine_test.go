package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/rtree"
	"hyperdom/internal/sstree"
)

func randItems(rng *rand.Rand, d, n int) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = rng.NormFloat64() * 20
		}
		items[i] = geom.Item{ID: i, Sphere: geom.NewSphere(c, rng.Float64()*3)}
	}
	return items
}

func randQueries(rng *rand.Rand, d, n int) []geom.Sphere {
	qs := make([]geom.Sphere, n)
	for i := range qs {
		c := make([]float64, d)
		for j := range c {
			c[j] = rng.NormFloat64() * 20
		}
		qs[i] = geom.NewSphere(c, rng.Float64()*2)
	}
	return qs
}

// TestEngineMatchesSequential: the engine is a scheduler, not a different
// algorithm — every batch result must equal the direct knn.Search answer,
// items and stats, on an SS-tree's pointer walk, on its snapshot's packed
// walk and on the rect-bounded R-tree's pointer walk.
func TestEngineMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	d := 5
	items := randItems(rng, d, 3000)
	queries := randQueries(rng, d, 60)

	ss := sstree.New(d)
	rt := rtree.New(d)
	for _, it := range items {
		ss.Insert(it)
		rt.Insert(it)
	}
	for _, tc := range []struct {
		name string
		idx  knn.Index
	}{
		{"sstree", knn.WrapSSTree(ss)},
		{"packed", knn.WrapPacked(ss.Freeze())},
		{"rtree", knn.WrapRTree(rt)},
	} {
		for _, algo := range []knn.Algorithm{knn.DF, knn.HS} {
			e := New(tc.idx, WithWorkers(4), WithAlgorithm(algo))
			got := e.SearchBatch(queries, 8)
			e.Close()
			for i, sq := range queries {
				want := knn.Search(tc.idx, sq, 8, dominance.Hyperbola{}, algo)
				if !reflect.DeepEqual(got[i].Items, want.Items) || got[i].Stats != want.Stats {
					t.Fatalf("%s algo=%v query %d: engine result differs", tc.name, algo, i)
				}
			}
		}
	}
}

// TestEngineConcurrentBatches drives several batches from concurrent
// goroutines through one pool (run under -race in CI) and checks each gets
// its own correct, complete answer set.
func TestEngineConcurrentBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	d := 4
	items := randItems(rng, d, 1500)
	ss := sstree.New(d)
	for _, it := range items {
		ss.Insert(it)
	}
	idx := knn.WrapPacked(ss.Freeze())
	e := New(idx, WithWorkers(4))
	defer e.Close()

	const callers = 6
	batches := make([][]geom.Sphere, callers)
	for i := range batches {
		batches[i] = randQueries(rng, d, 40)
	}
	results := make([][]knn.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.SearchBatch(batches[i], 6)
		}(i)
	}
	wg.Wait()
	for i := range batches {
		for j, sq := range batches[i] {
			want := knn.Search(idx, sq, 6, dominance.Hyperbola{}, knn.HS)
			if !reflect.DeepEqual(results[i][j].Items, want.Items) {
				t.Fatalf("caller %d query %d: concurrent batch result differs", i, j)
			}
		}
	}
}

// TestEngineObs: every query, batched or single, goes through knn.Search's
// per-search accounting — knn.nodes_visited moves by the sum of the
// answers' Stats — and nothing moves while the gate is off.
func TestEngineObs(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)

	rng := rand.New(rand.NewSource(604))
	d := 3
	items := randItems(rng, d, 500)
	ss := sstree.New(d)
	for _, it := range items {
		ss.Insert(it)
	}
	idx := knn.WrapPacked(ss.Freeze())

	obs.ResetForTest()
	e := New(idx, WithWorkers(3))
	queries := randQueries(rng, d, 37)
	results := append(e.SearchBatch(queries, 4), e.Search(queries[0], 4))
	e.Close()

	var nodes uint64
	for _, r := range results {
		nodes += uint64(r.Stats.NodesVisited)
	}
	if got := obs.Snapshot().Get("knn.nodes_visited"); got != nodes || nodes == 0 {
		t.Errorf("knn.nodes_visited = %d, the answers' Stats sum to %d", got, nodes)
	}

	// Nothing moves while the gate is off.
	obs.SetEnabled(false)
	obs.ResetForTest()
	e2 := New(idx, WithWorkers(2))
	e2.SearchBatch(queries[:5], 4)
	e2.Close()
	if moved := obs.Snapshot().Diff(obs.Snap{}); len(moved) != 0 {
		t.Errorf("counters moved while disabled: %v", moved)
	}
}

// TestEngineAllocs pins the per-query allocation cost of the engine path:
// the fixed scaffolding (results slice, waitgroup, channel sends) plus the
// per-query answer slices, nothing proportional to tree size.
func TestEngineAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	rng := rand.New(rand.NewSource(605))
	d := 8
	items := randItems(rng, d, 5000)
	ss := sstree.New(d)
	for _, it := range items {
		ss.Insert(it)
	}
	e := New(knn.WrapPacked(ss.Freeze()), WithWorkers(2))
	defer e.Close()
	queries := randQueries(rng, d, 16)
	e.SearchBatch(queries, 10) // warm worker arenas
	allocs := testing.AllocsPerRun(16, func() {
		e.SearchBatch(queries, 10)
	})
	// Budget mirrors TestSearchBatchAllocs: per-query answer allocations
	// plus fixed batch scaffolding.
	budget := float64(len(queries)*8 + 8)
	if allocs > budget {
		t.Errorf("%.1f allocs per %d-query batch, budget %.0f", allocs, len(queries), budget)
	}
}

func TestEngineEmptyBatchAndPanics(t *testing.T) {
	ss := sstree.New(2)
	ss.Insert(geom.Item{ID: 1, Sphere: geom.NewSphere([]float64{0, 0}, 1)})
	e := New(knn.WrapSSTree(ss), WithWorkers(1))
	defer e.Close()
	if res := e.SearchBatch(nil, 3); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	defer func() {
		if recover() == nil {
			t.Error("k=0 batch did not panic")
		}
	}()
	e.SearchBatch(randQueries(rand.New(rand.NewSource(1)), 2, 1), 0)
}

// TestEngineQueryPanicReachesCaller: a query that panics inside the search
// (here one of the wrong dimension) panics the caller's goroutine with
// knn.Search's own message, batched or single, so the caller can recover
// it; the good queries around it do not hide it.
func TestEngineQueryPanicReachesCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	ss := sstree.New(2)
	for _, it := range randItems(rng, 2, 200) {
		ss.Insert(it)
	}
	idx := knn.WrapSSTree(ss)
	bad := geom.NewSphere([]float64{1, 2, 3}, 1)
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	want := recovered(func() { knn.Search(idx, bad, 3, dominance.Hyperbola{}, knn.HS) })
	if want == nil {
		t.Fatal("knn.Search did not panic on a wrong-dimension query")
	}
	e := New(idx, WithWorkers(4))
	defer e.Close()
	queries := append(randQueries(rng, 2, 40), bad)
	queries = append(queries, randQueries(rng, 2, 40)...)
	if got := recovered(func() { e.SearchBatch(queries, 3) }); got != want {
		t.Errorf("SearchBatch panicked with %v, want %v", got, want)
	}
	if got := recovered(func() { e.Search(bad, 3) }); got != want {
		t.Errorf("Search panicked with %v, want %v", got, want)
	}
	// The engine still answers after a failed batch.
	if res := e.SearchBatch(queries[:40], 3); len(res) != 40 || res[39].K != 3 {
		t.Errorf("batch after a panic returned %d results", len(res))
	}
}
