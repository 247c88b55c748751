package knn

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"hyperdom/internal/dataset"
	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/packed"
	"hyperdom/internal/sstree"
)

// kthOf returns the item of items with the k-th smallest (MaxDist, ID) to
// sq — Definition 2's Sk over that set.
func kthOf(items []Item, sq geom.Sphere, k int) Item {
	cs := make([]Candidate, len(items))
	for i := range items {
		cs[i] = Candidate{Item: &items[i], MaxDist: geom.MaxDist(items[i].Sphere, sq)}
	}
	slices.SortFunc(cs, CompareCandidates)
	return *cs[k-1].Item
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

// TestAnchoredMatchesHyperbolaOnFatCandidates replays the final filter's
// real input at the paper's Table 2 defaults (d = 10, N(100, 25) centres,
// N(10, 2.5) radii, queries drawn from the data, k = 10 — the benchmark's
// fat_d10 shape) through the anchored kernel and the scalar criterion: every
// (Sk, S, Sq) triple the traversal hands to finish() must get one verdict
// from both. This is where the kernel's accept bound does most of its work.
func TestAnchoredMatchesHyperbolaOnFatCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-item fixture")
	}
	const n, d, k, wantTriples = 10000, 10, 10, 100000
	items := dataset.Spheres(dataset.SyntheticCenters(n, d, dataset.Gaussian, 17), dataset.GaussianRadii(10), 18)
	tree := sstree.New(d)
	tree.BulkLoad(items)
	tree.Freeze()
	idx := WrapSSTree(tree)
	rng := rand.New(rand.NewSource(19))
	var an dominance.Anchored
	triples, dominated := 0, 0
	for triples < wantTriples {
		sq := items[rng.Intn(n)].Sphere
		cs := SearchCandidates(idx, sq, k, dominance.Hyperbola{}, HS, nil)
		sk := cs.Candidates[k-1].Item.Sphere
		an.Reset(dominance.Hyperbola{}, sk, sq)
		for _, c := range cs.Candidates {
			got, want := an.Dominates(c.Item.Sphere), dominance.Hyperbola{}.Dominates(sk, c.Item.Sphere, sq)
			if got != want {
				t.Fatalf("Anchored=%v Hyperbola=%v\nsk=%v\ns=%v\nsq=%v", got, want, sk, c.Item.Sphere, sq)
			}
			if got {
				dominated++
			}
		}
		triples += len(cs.Candidates)
	}
	if dominated == 0 || dominated == triples {
		t.Fatalf("%d of %d triples dominated: the fixture does not straddle the filter", dominated, triples)
	}
}

// neverDominates keeps every candidate, so finish() returns all of them.
type neverDominates struct{ dominance.Criterion }

func (neverDominates) Dominates(sa, sb, sq geom.Sphere) bool { return false }

// TestFinishOrder: the answer order is CompareCandidates' — ascending
// MaxDist, ties broken by ID — on inputs with repeated MaxDist and repeated
// IDs, through both finish() shapes (the list not full, and the compaction of
// buf then top), and for the in-place sort on the shapes that push a
// quicksort to its fallback.
func TestFinishOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	key := func(c Candidate) [2]float64 { return [2]float64{c.MaxDist, float64(c.Item.ID)} }
	sq := geom.NewSphere([]float64{3, 3, 3}, 20) // reaches every item: no Case 3 prune thins the input
	for _, n := range []int{0, 1, 2, 13, 100, 2500} {
		items := tiedItems(rng, 3, n)
		for i := range items {
			items[i].ID = rng.Intn(n/2 + 1) // repeated IDs on top of the repeated MaxDist
		}
		want := make([]Candidate, n)
		for i := range items {
			want[i] = Candidate{Item: &items[i], MaxDist: geom.MaxDist(items[i].Sphere, sq)}
		}
		slices.SortFunc(want, CompareCandidates)
		for _, k := range []int{7, n + 1} {
			var l bestList
			var stats Stats
			l.reset(sq, k, neverDominates{dominance.Hyperbola{}}, &stats)
			for i := range items {
				l.offer(&items[i])
			}
			got := l.finish()
			if len(got) != n {
				t.Fatalf("n=%d k=%d: %d items back", n, k, len(got))
			}
			for i, it := range got {
				if g := [2]float64{geom.MaxDist(it.Sphere, sq), float64(it.ID)}; g != key(want[i]) {
					t.Fatalf("n=%d k=%d: position %d holds (MaxDist, ID) = %v, want %v", n, k, i, g, key(want[i]))
				}
			}
		}
	}
	shapes := map[string]func(i, n int) float64{
		"random":     func(i, n int) float64 { return rng.Float64() },
		"all equal":  func(i, n int) float64 { return 1 },
		"ascending":  func(i, n int) float64 { return float64(i) },
		"descending": func(i, n int) float64 { return float64(n - i) },
		"organ pipe": func(i, n int) float64 { return float64(min(i, n-i)) },
		"two values": func(i, n int) float64 { return float64(i % 2) },
	}
	ids := make([]Item, 64)
	for i := range ids {
		ids[i].ID = i
	}
	for name, maxDist := range shapes {
		for _, n := range []int{3, 12, 13, 200, 5000} {
			got := make([]Candidate, n)
			for i := range got {
				got[i] = Candidate{Item: &ids[rng.Intn(len(ids))], MaxDist: maxDist(i, n)}
			}
			want := slices.Clone(got)
			slices.SortFunc(want, CompareCandidates)
			sortCandidates(got)
			for i := range got {
				if key(got[i]) != key(want[i]) {
					t.Fatalf("%s n=%d: position %d holds %v, want %v", name, n, i, key(got[i]), key(want[i]))
				}
			}
		}
	}
}

// TestPutScratchHoldsNoCandidate: a scratch back in the pool holds no
// candidate anywhere in its list storage — over the full capacity, not just
// the last search's length — and nothing of the request that used it. A
// candidate is a pointer into an index the caller may have closed since.
func TestPutScratchHoldsNoCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(4244))
	const d = 4
	big, small := index(randItems(rng, d, 3000, 30), d), index(randItems(rng, d, 40, 1), d)
	check := func(name string, sc *scratch) {
		t.Helper()
		l := &sc.list
		for _, part := range [][]Candidate{l.top.es[:cap(l.top.es)], l.buf[:cap(l.buf)]} {
			for i, c := range part {
				if c != (Candidate{}) {
					t.Fatalf("%s: pooled scratch still holds candidate %+v in slot %d of %d", name, c, i, len(part))
				}
			}
		}
		if len(l.top.es) != 0 || len(l.buf) != 0 {
			t.Errorf("%s: list not empty: %d + %d", name, len(l.top.es), len(l.buf))
		}
		if l.sq.Center != nil || l.crit != nil || l.stats != nil || !reflect.DeepEqual(l.anch, dominance.Anchored{}) {
			t.Errorf("%s: pooled list retains request state: sq=%v crit=%v anch=%+v", name, l.sq, l.crit, l.anch)
		}
	}
	// The fat search fills buf far beyond what survives the filter; the thin
	// one after it leaves most of that capacity unused.
	for _, algo := range []Algorithm{DF, HS} {
		sc := getScratch()
		fat := sc.search(big, randQuery(rng, d, 30), 10, dominance.Hyperbola{}, algo)
		if held := cap(sc.list.buf); held <= len(fat.Items) {
			t.Fatalf("fixture: buf capacity %d never exceeded the %d survivors", held, len(fat.Items))
		}
		sc.search(small, randQuery(rng, d, 1), 3, dominance.Hyperbola{}, algo)
		sc.searchCandidates(big, randQuery(rng, d, 30), 10, dominance.Hyperbola{}, algo)
		putScratch(sc)
		check(algo.String(), sc)
	}
}
