package knn

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/packed"
)

// kthOf returns the item of items with the k-th smallest (MaxDist, ID) to
// sq — Definition 2's Sk over that set.
func kthOf(items []Item, sq geom.Sphere, k int) Item {
	cs := make([]Candidate, len(items))
	for i, it := range items {
		cs[i] = Candidate{Item: it, MaxDist: geom.MaxDist(it.Sphere, sq)}
	}
	slices.SortFunc(cs, CompareCandidates)
	return cs[k-1].Item
}

// TestInterimVerdictIsNotFinal documents why the traversal consults no
// interim verdict: Section 6's literal Cases 1–2 decide against the k-th
// candidate *at encounter time*, Definition 2 against the FINAL Sk, and
// dominance by an interim Sk does not imply dominance by the final one. The
// test finds a witness: a prefix of the data (what a traversal has seen at
// some point) whose Sk dominates an item that the final Sk does not.
func TestInterimVerdictIsNotFinal(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	crit := dominance.Hyperbola{}
	const k = 5
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(3)
		items := randItems(rng, d, 400, 1)
		sq := randQuery(rng, d, 1)
		final := kthOf(items, sq, k)
		for m := k; m < len(items); m += k {
			interim := kthOf(items[:m], sq, k)
			if interim.ID == final.ID {
				break // the prefix already holds the final Sk
			}
			for _, s := range items {
				if crit.Dominates(interim.Sphere, s.Sphere, sq) && !crit.Dominates(final.Sphere, s.Sphere, sq) {
					return
				}
			}
		}
	}
	t.Fatal("no item was dominated by an interim Sk and not by the final one; " +
		"if that can no longer happen, interim verdicts would be safe to use")
}

// countingCrit counts the criterion calls that actually reach it.
type countingCrit struct {
	dominance.Criterion
	calls *int
}

func (c countingCrit) Dominates(sa, sb, sq geom.Sphere) bool {
	*c.calls++
	return c.Criterion.Dominates(sa, sb, sq)
}

// TestOneCriterionCallPerCandidate: a search calls the criterion exactly
// once per item Case 3 did not discard — in the final filter — and a
// candidate search not at all.
func TestOneCriterionCallPerCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(4243))
	for trial := 0; trial < 10; trial++ {
		d := 2 + rng.Intn(4)
		items := randItems(rng, d, 1500, 3)
		sq := randQuery(rng, d, 3)
		k := 1 + rng.Intn(20)
		pointer, pt := buildFrozen(t, "sstree", items, d)
		for _, idx := range []Index{pointer, WrapPacked(pt)} {
			for _, algo := range []Algorithm{DF, HS} {
				calls := 0
				crit := countingCrit{dominance.Hyperbola{}, &calls}
				cs := SearchCandidates(idx, sq, k, crit, algo, nil)
				if calls != 0 || cs.Stats.DomChecks != 0 {
					t.Fatalf("trial %d %v: candidate search made %d criterion calls, DomChecks %d", trial, algo, calls, cs.Stats.DomChecks)
				}
				// With no criterion call, every prune so far is a Case 3.
				case3 := cs.Stats.Pruned
				if len(cs.Candidates) != cs.Stats.Items-case3 {
					t.Fatalf("trial %d %v: %d candidates, want Items %d − Case-3 prunes %d", trial, algo, len(cs.Candidates), cs.Stats.Items, case3)
				}
				res := Search(idx, sq, k, crit, algo)
				if want := res.Stats.Items - case3; calls != want || res.Stats.DomChecks != want {
					t.Fatalf("trial %d %v: %d criterion calls, DomChecks %d, want Items − Case-3 prunes = %d", trial, algo, calls, res.Stats.DomChecks, want)
				}
				if len(res.Items) != res.Stats.Items-res.Stats.Pruned {
					t.Fatalf("trial %d %v: %d results, want Items %d − Pruned %d", trial, algo, len(res.Items), res.Stats.Items, res.Stats.Pruned)
				}
				if hyp := Search(idx, sq, k, dominance.Hyperbola{}, algo); hyp.Stats != res.Stats {
					t.Fatalf("trial %d %v: anchored-kernel stats %+v != interface-path stats %+v", trial, algo, hyp.Stats, res.Stats)
				}
			}
		}
	}
}

// tiedItems is a fixture with duplicated MaxDist values: centers on a
// coarse integer lattice, every radius the same, so the (MaxDist, ID) order
// is decided by ID in many places — with luck the k-th.
func tiedItems(rng *rand.Rand, d, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = float64(rng.Intn(7))
		}
		items[i] = Item{Sphere: geom.NewSphere(c, 0.25), ID: i}
	}
	return items
}

// subsequence reports whether sub occurs in seq in order.
func subsequence(sub, seq []int) bool {
	for _, id := range seq {
		if len(sub) > 0 && sub[0] == id {
			sub = sub[1:]
		}
	}
	return len(sub) == 0
}

// orMinMax is crit strengthened by Lemma 9, the proof Case 3 prunes with.
type orMinMax struct{ dominance.Criterion }

func (c orMinMax) Dominates(sa, sb, sq geom.Sphere) bool {
	return dominance.MinMax{}.Dominates(sa, sb, sq) || c.Criterion.Dominates(sa, sb, sq)
}

// TestDifferentialMatrix is the answer lock of the criterion-free
// traversal: every criterion × substrate (pointer, frozen, mmap-loaded) ×
// strategy × quant tier × k against BruteForce — ids AND order — on a
// random fixture and on one full of MaxDist ties.
//
// BruteForce asks the criterion about every item; a search drops Case 3
// items unasked, and which items those are depends on the visiting order.
// So the answer is pinned between BruteForce over the criterion and
// BruteForce over "MinMax or criterion". For a criterion that subsumes
// MinMax (Hyperbola, Exact, MinMax) the two coincide and the answer must
// equal them exactly; for one that does not (MBR, GP) it must be an ordered
// superset of the one and an ordered subset of the other, and identical
// across everything that shares a visiting order (pointer, frozen, loaded,
// every tier).
func TestDifferentialMatrix(t *testing.T) {
	prev := SetQuantMode(QuantNone)
	defer SetQuantMode(prev)
	rng := rand.New(rand.NewSource(1313))
	const d, n = 3, 600
	crits := []dominance.Criterion{dominance.Hyperbola{}, dominance.Exact{}, dominance.MinMax{}, dominance.MBR{}, dominance.GP{}}
	fixtures := []struct {
		name  string
		items []Item
		q     []geom.Sphere
	}{
		{"random", randItems(rng, d, n, 4), []geom.Sphere{randQuery(rng, d, 4), randQuery(rng, d, 0)}},
		{"ties", tiedItems(rng, d, n), []geom.Sphere{geom.NewSphere([]float64{3, 3, 3}, 0.5), geom.NewSphere([]float64{0, 6, 2}, 0)}},
	}
	for _, fx := range fixtures {
		for _, substrate := range []string{"sstree", "mtree", "rtree"} {
			pointer, pt := buildFrozen(t, substrate, fx.items, d)
			path := filepath.Join(t.TempDir(), substrate+".hds")
			if err := pt.Save(path); err != nil {
				t.Fatalf("Save: %v", err)
			}
			mm, err := packed.Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer mm.Close()
			type target struct {
				name  string
				idx   Index
				tiers []QuantMode
			}
			targets := []target{
				{"pointer", pointer, []QuantMode{QuantNone}},
				{"packed", WrapPacked(pt), []QuantMode{QuantNone, QuantF32, QuantI8}},
				{"mmap", WrapPacked(mm.Tree), []QuantMode{QuantNone, QuantF32, QuantI8}},
			}
			for _, crit := range crits {
				for qi, sq := range fx.q {
					for _, k := range []int{1, 10, 100, n + 5} {
						hi := BruteForce(fx.items, sq, k, crit).IDs()
						lo := BruteForce(fx.items, sq, k, orMinMax{crit}).IDs()
						if (crit.Sound() || crit.Name() == "MinMax") && !equalIDs(lo, hi) {
							t.Fatalf("%s subsumes MinMax, yet BruteForce differs with and without it:\n%v\n%v", crit.Name(), lo, hi)
						}
						for _, algo := range []Algorithm{DF, HS} {
							var first []int
							for _, tg := range targets {
								for _, qm := range tg.tiers {
									SetQuantMode(qm)
									got := Search(tg.idx, sq, k, crit, algo).IDs()
									ctx := fmt.Sprintf("%s/%s/%s/%s/%v/%v q%d k=%d", fx.name, substrate, tg.name, crit.Name(), algo, qm, qi, k)
									if !subsequence(lo, got) || !subsequence(got, hi) {
										t.Fatalf("%s:\n got %v\nwant between %v\n and %v", ctx, got, lo, hi)
									}
									if first == nil {
										first = got
									}
									if !equalIDs(got, first) {
										t.Fatalf("%s:\n got %v\nwant %v (the pointer path's answer)", ctx, got, first)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
