package knn

import (
	"math/rand"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/sstree"
	"hyperdom/internal/tree"
)

// TestCandidateSetTelemetry pins the telemetry scalars a candidate search
// returns beside its candidates when there is nothing to report — no coarse
// prunes off an unfrozen index — and the local Sk where the sorted prefix
// says it is.
func TestCandidateSetTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	items := randItems(rng, 3, 600, 3)
	sq := randQuery(rng, 3, 2)
	const k = 6
	crit := dominance.Hyperbola{}
	cs := SearchCandidates(index(items, 3), sq, k, crit, HS, nil)
	if cs.CoarsePrunes != 0 {
		t.Fatalf("unfrozen index reported %d coarse prunes", cs.CoarsePrunes)
	}
	if want := BruteForce(items, sq, k, crit); cs.Candidates[k-1].Item.ID != want.Items[k-1].ID {
		t.Fatalf("Candidates[k-1] is item %d, Sk is %d", cs.Candidates[k-1].Item.ID, want.Items[k-1].ID)
	}
}

// TestCandidateSetCoarsePrunes pins that the quantized narrow-tier
// settlements of a frozen traversal surface on the CandidateSet.
func TestCandidateSetCoarsePrunes(t *testing.T) {
	prev := SetQuantMode(QuantF32)
	defer SetQuantMode(prev)
	rng := rand.New(rand.NewSource(74))
	items := randItems(rng, 3, 800, 3)
	tr := sstree.New(3, tree.WithMaxFill(16))
	for _, it := range items {
		tr.Insert(it)
	}
	tr.Freeze()
	idx := WrapSSTree(tr)

	total := uint64(0)
	for q := 0; q < 10; q++ {
		cs := SearchCandidates(idx, randQuery(rng, 3, 2), 5, dominance.Hyperbola{}, HS, nil)
		total += cs.CoarsePrunes
	}
	if total == 0 {
		t.Fatal("frozen f32 traversals reported zero coarse prunes over 10 queries")
	}
}
