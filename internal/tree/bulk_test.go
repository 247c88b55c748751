package tree_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/tree"
)

// TestLoadStrictInvariants: a bulk-loaded tree meets the same strict
// invariants as an inserted one — minimum fill included — for every policy,
// at the sizes where the height changes, and keeps meeting them after a
// third of its items are deleted and inserted again.
func TestLoadStrictInvariants(t *testing.T) {
	const fill = 8
	for si, s := range substrates {
		for _, d := range []int{1, 2, 10} {
			for _, n := range []int{0, 1, 2, fill - 1, fill, fill + 1, 577, 1000, 20000} {
				t.Run(fmt.Sprintf("%s/d%d/n%d", s.name, d, n), func(t *testing.T) {
					if testing.Short() && n > 1000 {
						t.Skip("large tree")
					}
					rng := rand.New(rand.NewSource(int64(1000*si + 10*d + n)))
					items := make([]tree.Item, n)
					for i := range items {
						items[i] = randItem(rng, d, i)
					}
					tr := s.new(d, tree.WithMaxFill(fill))
					tree.Load(tr, slices.Clone(items))
					if tr.Len() != n {
						t.Fatalf("Len = %d", tr.Len())
					}
					if msg := tr.CheckInvariants(); msg != "" {
						t.Fatalf("after Load: %s", msg)
					}
					third := items[:n/3]
					for _, it := range third {
						if !tr.Delete(it) {
							t.Fatalf("Delete(%d) found nothing", it.ID)
						}
					}
					if msg := tr.CheckInvariants(); msg != "" {
						t.Fatalf("after deleting %d: %s", len(third), msg)
					}
					for _, it := range third {
						tr.Insert(it)
					}
					if msg := tr.CheckInvariants(); msg != "" {
						t.Fatalf("after reinserting %d: %s", len(third), msg)
					}
					seen := 0
					tr.Visit(func(tree.Item) bool { seen++; return true })
					if seen != n || tr.Len() != n {
						t.Fatalf("Visit saw %d items, Len %d, want %d", seen, tr.Len(), n)
					}
				})
			}
		}
	}
}

// TestLoadLeavesAreClipped: leaves share the loaded slice, so an insert into
// one must not write over the items of the leaf beside it.
func TestLoadLeavesAreClipped(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range substrates {
		items := make([]tree.Item, 300)
		for i := range items {
			items[i] = randItem(rng, 2, i)
		}
		tr := s.new(2, tree.WithMaxFill(6))
		tree.Load(tr, slices.Clone(items))
		for i := 0; i < 100; i++ {
			tr.Insert(randItem(rng, 2, 1000+i))
		}
		seen := map[int]bool{}
		tr.Visit(func(it tree.Item) bool { seen[it.ID] = true; return true })
		if len(seen) != 400 || !seen[0] || !seen[299] {
			t.Fatalf("%s: %d distinct items after 300 loaded + 100 inserted", s.name, len(seen))
		}
		if msg := tr.CheckInvariants(); msg != "" {
			t.Fatalf("%s: %s", s.name, msg)
		}
	}
}

// TestLoadPanicsOnBadItem: Load validates exactly as Insert does.
func TestLoadPanicsOnBadItem(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Load accepted a 3-dimensional item into a 2-dimensional tree")
		}
	}()
	tree.Load(substrates[0].new(2), []tree.Item{{Sphere: geom.NewSphere([]float64{1, 2, 3}, 1)}})
}

// TestCutMatchesSort: Cut leaves exactly the items a sort by (center[d], ID)
// would put first on the left, whatever the input — duplicates, ties on the
// coordinate broken by ID, sorted and reversed runs — and at every k.
func TestCutMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	order := func(d int) func(a, b tree.Item) int {
		return func(a, b tree.Item) int {
			return cmp.Or(cmp.Compare(a.Sphere.Center[d], b.Sphere.Center[d]), cmp.Compare(a.ID, b.ID))
		}
	}
	shapes := map[string]func(i int) float64{
		"random":   func(int) float64 { return rng.NormFloat64() },
		"few":      func(int) float64 { return float64(rng.Intn(3)) },
		"constant": func(int) float64 { return 1 },
		"sorted":   func(i int) float64 { return float64(i) },
		"reversed": func(i int) float64 { return float64(-i) },
	}
	for name, coord := range shapes {
		for _, n := range []int{0, 1, 2, 3, 10, 100, 5000} {
			for _, k := range []int{2, 3, 5, 24} {
				items := make([]tree.Item, n)
				for i := range items {
					// Dimension 1 is the widest, so the cut is on it.
					items[i] = tree.Item{ID: rng.Intn(n + 1), Sphere: geom.NewSphere([]float64{0, 1e6 * coord(i)}, 0)}
				}
				if n > 0 {
					items[0].Sphere.Center[1] = 1e12 // dimension 0 has no spread at all
				}
				want := slices.Clone(items)
				slices.SortFunc(want, order(1))
				d, m := tree.Cut(items, 2, k)
				if (d != 1 && n > 1) || m != n*((k+1)/2)/k {
					t.Fatalf("%s n=%d k=%d: Cut = (%d, %d)", name, n, k, d, m)
				}
				left := slices.Clone(items[:m])
				slices.SortFunc(left, order(1))
				for i := range left {
					if order(1)(left[i], want[i]) != 0 {
						t.Fatalf("%s n=%d k=%d: left side differs from the sorted prefix at %d", name, n, k, i)
					}
				}
				if m < n && order(1)(items[m], want[m]) != 0 {
					t.Fatalf("%s n=%d k=%d: items[m] is not the m-th in order", name, n, k)
				}
			}
		}
	}
}
