package knn

import (
	"math/rand"
	"sort"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
)

// CompareCandidates orders candidates by ascending (MaxDist, ID): candLess
// as a three-way comparison, in the form slices.SortFunc takes.
func CompareCandidates(a, b Candidate) int {
	switch {
	case candLess(&a, &b):
		return -1
	case candLess(&b, &a):
		return 1
	}
	return 0
}

// finalFilter applies Definition 2's final filter to a candidate set from
// the outside: Sk = k-th smallest (MaxDist, ID), keep every
// candidate Sk does not provably dominate.
func finalFilter(cs CandidateSet, sq geom.Sphere, crit dominance.Criterion) []Item {
	cands := cs.Candidates
	if len(cands) <= cs.K {
		out := make([]Item, len(cands))
		for i, c := range cands {
			out[i] = *c.Item
		}
		return out
	}
	sk := cands[cs.K-1].Item
	var out []Item
	for _, c := range cands {
		if crit.Dominates(sk.Sphere, c.Item.Sphere, sq) {
			continue
		}
		out = append(out, *c.Item)
	}
	return out
}

// TestSearchCandidatesRecoversAnswer locks the CandidateSet contract:
// applying the final Definition 2 filter to the raw candidates reproduces
// the Search answer exactly, for both traversals.
func TestSearchCandidatesRecoversAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	crit := dominance.Hyperbola{}
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(3)
		n := 1 + rng.Intn(400)
		items := randItems(rng, d, n, 4)
		idx := index(items, d)
		sq := randQuery(rng, d, 4)
		k := 1 + rng.Intn(12)
		for _, algo := range []Algorithm{DF, HS} {
			want := Search(idx, sq, k, crit, algo)
			cs := SearchCandidates(idx, sq, k, crit, algo, nil)
			got := finalFilter(cs, sq, crit)
			if !equalIDs(idsOf(want.Items), idsOf(got)) {
				t.Fatalf("trial %d %v: filtered candidates %v != answer %v",
					trial, algo, idsOf(got), idsOf(want.Items))
			}
			// The k smallest must lead in ascending (MaxDist, ID) order;
			// the remainder is unordered but all beyond the local Sk.
			for i := 1; i < len(cs.Candidates); i++ {
				if CompareCandidates(cs.Candidates[min(i, k)-1], cs.Candidates[i]) >= 0 {
					t.Fatalf("trial %d %v: candidate order violated at %d", trial, algo, i)
				}
			}
		}
	}
}

// TestSearchCandidatesStats pins that a candidate search performs
// exactly the traversal work of a plain Search (same Stats), since the two
// share one traversal and differ only in the answer pass.
func TestSearchCandidatesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	items := randItems(rng, 3, 500, 3)
	idx := index(items, 3)
	sq := randQuery(rng, 3, 3)
	for _, algo := range []Algorithm{DF, HS} {
		res := Search(idx, sq, 8, dominance.Hyperbola{}, algo)
		cs := SearchCandidates(idx, sq, 8, dominance.Hyperbola{}, algo, nil)
		// finish() runs extra final-filter DomChecks that collect() skips,
		// so compare the traversal-side fields only.
		if cs.Stats.NodesVisited != res.Stats.NodesVisited || cs.Stats.Items != res.Stats.Items {
			t.Fatalf("%v: candidate stats %+v diverge from search stats %+v", algo, cs.Stats, res.Stats)
		}
	}
}

func TestSearchCandidatesEmptyIndex(t *testing.T) {
	idx := index(nil, 2)
	cs := SearchCandidates(idx, randQuery(rand.New(rand.NewSource(1)), 2, 1), 3, dominance.Hyperbola{}, HS, nil)
	if len(cs.Candidates) != 0 || cs.K != 3 {
		t.Fatalf("empty index returned %+v", cs)
	}
}

func idsOf(items []Item) []int {
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Ints(ids)
	return ids
}
