package rtree

import (
	"math/rand"
	"testing"

	"hyperdom/internal/tree"
)

func TestDeleteAll(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tr, items := buildTree(t, rng, 4, 1500)
	perm := rng.Perm(len(items))
	for i, pi := range perm {
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
}

func TestDeleteMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	tr, _ := buildTree(t, rng, 3, 100)
	if tr.Delete(randItem(rng, 3, 10_000)) {
		t.Error("delete of non-existent item returned true")
	}
	if tr.Len() != 100 {
		t.Errorf("Len=%d after failed delete", tr.Len())
	}
}

func TestInsertDeleteInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	tr := New(3, tree.WithMaxFill(6))
	live := map[int]Item{}
	next := 0
	for step := 0; step < 3000; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			it := randItem(rng, 3, next)
			next++
			tr.Insert(it)
			live[it.ID] = it
		} else {
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
}
