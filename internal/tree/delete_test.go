package tree_test

import (
	"math/rand"
	"testing"

	"hyperdom/internal/tree"
)

// build inserts n random d-dimensional items into a fresh tree from mk.
func build(rng *rand.Rand, mk func(dim int, opts ...tree.Option) *tree.Tree, d, n int) (*tree.Tree, []tree.Item) {
	tr := mk(d)
	items := make([]tree.Item, n)
	for i := range items {
		items[i] = randItem(rng, d, i)
		tr.Insert(items[i])
	}
	return tr, items
}

func TestDeleteAll(t *testing.T) {
	for si, s := range substrates {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(51 + 10*si)))
			tr, items := build(rng, s.new, 4, 1500)
			for i, pi := range rng.Perm(len(items)) {
				if !tr.Delete(items[pi]) {
					t.Fatalf("delete of existing item %d failed (step %d)", items[pi].ID, i)
				}
				if i%131 == 0 {
					if msg := tr.CheckInvariants(); msg != "" {
						t.Fatalf("invariants after %d deletes: %s", i+1, msg)
					}
				}
			}
			if tr.Len() != 0 {
				t.Errorf("Len=%d after deleting everything", tr.Len())
			}
		})
	}
}

func TestDeleteMissing(t *testing.T) {
	for si, s := range substrates {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(52 + 10*si)))
			tr, _ := build(rng, s.new, 3, 100)
			if tr.Delete(randItem(rng, 3, 10_000)) {
				t.Error("delete of non-existent item returned true")
			}
			if tr.Len() != 100 {
				t.Errorf("Len=%d after failed delete", tr.Len())
			}
		})
	}
}

func TestInsertDeleteInterleaved(t *testing.T) {
	for si, s := range substrates {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(53 + 10*si)))
			tr := s.new(3, tree.WithMaxFill(6))
			live := map[int]tree.Item{}
			next := 0
			for step := 0; step < 3000; step++ {
				if len(live) == 0 || rng.Float64() < 0.6 {
					it := randItem(rng, 3, next)
					next++
					tr.Insert(it)
					live[it.ID] = it
				} else {
					var victim tree.Item
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
					t.Fatalf("step %d: Len=%d live=%d", step, tr.Len(), len(live))
				}
			}
			if msg := tr.CheckInvariants(); msg != "" {
				t.Fatalf("invariants after interleaved ops: %s", msg)
			}
			// Everything still findable.
			for _, it := range live {
				found := false
				for _, got := range tr.RangeSearch(it.Sphere) {
					if got.ID == it.ID {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("live item %d lost", it.ID)
				}
			}
		})
	}
}
