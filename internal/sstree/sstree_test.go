package sstree

import (
	"math/rand"
	"sort"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/tree"
	"hyperdom/internal/vec"
)

func randItem(rng *rand.Rand, d int, id int) Item {
	c := make([]float64, d)
	for i := range c {
		c[i] = rng.NormFloat64() * 25
	}
	return Item{Sphere: geom.NewSphere(c, rng.Float64()*3), ID: id}
}

func buildTree(t *testing.T, rng *rand.Rand, d, n int, opts ...tree.Option) (*Tree, []Item) {
	t.Helper()
	tr := New(d, opts...)
	items := make([]Item, n)
	for i := 0; i < n; i++ {
		items[i] = randItem(rng, d, i)
		tr.Insert(items[i])
	}
	return tr, items
}

func TestEmptyTree(t *testing.T) {
	tr := New(3)
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Errorf("empty tree Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Root(); ok {
		t.Error("empty tree has a root")
	}
	if got := tr.RangeSearch(geom.NewSphere([]float64{0, 0, 0}, 1)); len(got) != 0 {
		t.Errorf("RangeSearch on empty tree = %v", got)
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Errorf("empty tree invariants: %s", msg)
	}
}

func TestInsertInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 5, 24, 25, 100, 1000, 5000} {
		tr, _ := buildTree(t, rng, 4, n)
		if tr.Len() != n {
			t.Errorf("n=%d: Len=%d", n, tr.Len())
		}
		if msg := tr.CheckInvariants(); msg != "" {
			t.Errorf("n=%d: invariant violated: %s", n, msg)
		}
	}
}

func TestVisitSeesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, items := buildTree(t, rng, 3, 2000)
	seen := map[int]int{}
	tr.Visit(func(it Item) bool {
		seen[it.ID]++
		return true
	})
	if len(seen) != len(items) {
		t.Fatalf("visited %d distinct IDs, want %d", len(seen), len(items))
	}
	for id, cnt := range seen {
		if cnt != 1 {
			t.Errorf("ID %d visited %d times", id, cnt)
		}
	}
}

func TestVisitEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, _ := buildTree(t, rng, 2, 500)
	calls := 0
	tr.Visit(func(Item) bool {
		calls++
		return calls < 10
	})
	if calls != 10 {
		t.Errorf("Visit made %d calls after stop, want 10", calls)
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, d := range []int{2, 5, 10} {
		tr, items := buildTree(t, rng, d, 3000)
		for trial := 0; trial < 30; trial++ {
			q := randItem(rng, d, -1).Sphere
			q.Radius += 10 * rng.Float64()
			var want []int
			for _, it := range items {
				if geom.Overlap(it.Sphere, q) {
					want = append(want, it.ID)
				}
			}
			got := tr.RangeSearch(q)
			gotIDs := make([]int, len(got))
			for i, it := range got {
				gotIDs[i] = it.ID
			}
			sort.Ints(want)
			sort.Ints(gotIDs)
			if !equalInts(want, gotIDs) {
				t.Fatalf("d=%d trial=%d: RangeSearch mismatch: got %d items, want %d",
					d, trial, len(gotIDs), len(want))
			}
		}
	}
}

func TestBoundingSpheresCoverItems(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, items := buildTree(t, rng, 6, 4000)
	root, ok := tr.Root()
	if !ok {
		t.Fatal("no root")
	}
	cover := root.Sphere()
	grown := geom.NewSphere(cover.Center, cover.Radius*(1+1e-9))
	for _, it := range items {
		if !grown.ContainsSphere(it.Sphere) {
			t.Fatalf("item %d escapes root bounding sphere", it.ID)
		}
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr, items := buildTree(t, rng, 4, 2000)
	perm := rng.Perm(len(items))
	for i, pi := range perm {
		if !tr.Delete(items[pi]) {
			t.Fatalf("Delete of existing item %d failed (step %d)", items[pi].ID, i)
		}
		if tr.Len() != len(items)-i-1 {
			t.Fatalf("Len=%d after %d deletes", tr.Len(), i+1)
		}
		if i%97 == 0 {
			if msg := tr.CheckInvariants(); msg != "" {
				t.Fatalf("invariant violated after %d deletes: %s", i+1, msg)
			}
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len=%d after deleting everything", tr.Len())
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Errorf("invariant violated on emptied tree: %s", msg)
	}
}

func TestDeleteMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr, _ := buildTree(t, rng, 3, 100)
	ghost := randItem(rng, 3, 10_000)
	if tr.Delete(ghost) {
		t.Error("Delete of non-existent item returned true")
	}
	if tr.Len() != 100 {
		t.Errorf("Len=%d after failed delete", tr.Len())
	}
}

func TestInsertDeleteInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := New(3, tree.WithMaxFill(8))
	live := map[int]Item{}
	next := 0
	for step := 0; step < 5000; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			it := randItem(rng, 3, next)
			next++
			tr.Insert(it)
			live[it.ID] = it
		} else {
			// Delete a random live item.
			var victim Item
			for _, it := range live {
				victim = it
				break
			}
			if !tr.Delete(victim) {
				t.Fatalf("step %d: delete of live item %d failed", step, victim.ID)
			}
			delete(live, victim.ID)
		}
		if tr.Len() != len(live) {
			t.Fatalf("step %d: Len=%d, live=%d", step, tr.Len(), len(live))
		}
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatalf("invariant violated after interleaved ops: %s", msg)
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr, _ := buildTree(t, rng, 3, 10000, tree.WithMaxFill(16))
	h := tr.Height()
	if h < 3 || h > 8 {
		t.Errorf("height %d for 10k items with fanout 16; expected a shallow balanced tree", h)
	}
}

func TestInsertPanics(t *testing.T) {
	tr := New(3)
	for name, fn := range map[string]func(){
		"wrong dim": func() { tr.Insert(Item{Sphere: geom.NewSphere([]float64{1, 2}, 1)}) },
		"bad radius": func() {
			tr.Insert(Item{Sphere: geom.Sphere{Center: []float64{1, 2, 3}, Radius: -1}})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New(0) did not panic")
			}
		}()
		New(0)
	}()
}

func TestDuplicateSpheres(t *testing.T) {
	tr := New(2, tree.WithMaxFill(4))
	s := geom.NewSphere([]float64{1, 1}, 0.5)
	for i := 0; i < 50; i++ {
		tr.Insert(Item{Sphere: s.Clone(), ID: i})
	}
	if tr.Len() != 50 {
		t.Fatalf("Len=%d", tr.Len())
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatalf("invariants with duplicates: %s", msg)
	}
	got := tr.RangeSearch(geom.NewSphere([]float64{1, 1}, 0.1))
	if len(got) != 50 {
		t.Errorf("RangeSearch found %d duplicates, want 50", len(got))
	}
}

func TestCentroidIsMeanOfCenters(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tr, items := buildTree(t, rng, 3, 500)
	root, _ := tr.Root()
	mean := make([]float64, 3)
	for _, it := range items {
		vec.Axpy(mean, 1/float64(len(items)), it.Sphere.Center, mean)
	}
	if vec.Dist(root.Sphere().Center, mean) > 1e-6 {
		t.Errorf("root centroid %v, want mean of centers %v", root.Sphere().Center, mean)
	}
}

func equalInts(a, b []int) bool {
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
