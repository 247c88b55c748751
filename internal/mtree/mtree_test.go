package mtree

import (
	"math/rand"
	"sort"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/tree"
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
	if tr.Len() != 0 {
		t.Errorf("empty tree Len=%d", tr.Len())
	}
	if _, ok := tr.Root(); ok {
		t.Error("empty tree has a root")
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Errorf("empty tree invariants: %s", msg)
	}
}

func TestInsertInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 24, 25, 500, 3000} {
		tr, _ := buildTree(t, rng, 4, n)
		if tr.Len() != n {
			t.Errorf("n=%d: Len=%d", n, tr.Len())
		}
		if msg := tr.CheckInvariants(); msg != "" {
			t.Errorf("n=%d: invariant violated: %s", n, msg)
		}
	}
}

// TestRefitFreshLeaf: a leaf that never had an item inserted — a bulk-loaded
// one — has no pivot; Refit gives it its first item's center, as Grow does on
// a leaf's first insert, and covers every item from there.
func TestRefitFreshLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	leaf := &tree.Node{Leaf: true}
	for i := 0; i < 5; i++ {
		leaf.Items = append(leaf.Items, randItem(rng, 3, i))
	}
	policy{}.Refit(leaf)
	first := leaf.Items[0].Sphere.Center
	if &leaf.Center[0] == &first[0] || leaf.Center[0] != first[0] || leaf.Center[2] != first[2] {
		t.Fatalf("pivot %v, want a copy of the first item's center %v", leaf.Center, first)
	}
	if leaf.Count != 5 {
		t.Errorf("Count = %d, want 5", leaf.Count)
	}
	cover := geom.Sphere{Center: leaf.Center, Radius: leaf.Radius}
	for _, it := range leaf.Items {
		if !cover.ContainsSphere(it.Sphere) {
			t.Errorf("item %d escapes the refitted leaf", it.ID)
		}
	}
}

func TestVisitSeesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, items := buildTree(t, rng, 3, 1500)
	seen := map[int]bool{}
	tr.Visit(func(it Item) bool {
		seen[it.ID] = true
		return true
	})
	if len(seen) != len(items) {
		t.Fatalf("visited %d distinct IDs, want %d", len(seen), len(items))
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{2, 6} {
		tr, items := buildTree(t, rng, d, 2000)
		for trial := 0; trial < 25; trial++ {
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
			if len(want) != len(gotIDs) {
				t.Fatalf("d=%d trial=%d: got %d items, want %d", d, trial, len(gotIDs), len(want))
			}
			for i := range want {
				if want[i] != gotIDs[i] {
					t.Fatalf("d=%d trial=%d: ID mismatch", d, trial)
				}
			}
		}
	}
}

func TestSmallFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr, _ := buildTree(t, rng, 2, 1000, tree.WithMaxFill(4))
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatalf("invariants with fanout 4: %s", msg)
	}
}

func TestDuplicates(t *testing.T) {
	tr := New(2, tree.WithMaxFill(4))
	s := geom.NewSphere([]float64{3, 3}, 1)
	for i := 0; i < 40; i++ {
		tr.Insert(Item{Sphere: s.Clone(), ID: i})
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatalf("invariants with duplicates: %s", msg)
	}
	if got := tr.RangeSearch(geom.NewSphere([]float64{3, 3}, 0.5)); len(got) != 40 {
		t.Errorf("found %d duplicates, want 40", len(got))
	}
}

func TestInsertPanics(t *testing.T) {
	tr := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-dimension insert did not panic")
		}
	}()
	tr.Insert(Item{Sphere: geom.NewSphere([]float64{1, 2}, 1)})
}
