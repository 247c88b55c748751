package knn

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"hyperdom/internal/dataset"
	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
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
		pointer, pt := buildIndex(t, "sstree", items, d)
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
// traversal: every criterion × substrate (pointer walk; the SS-tree's
// snapshot also in memory and mmap-loaded) × strategy × quant tier × k
// against BruteForce — ids AND order — on a random fixture and on one full
// of MaxDist ties.
//
// BruteForce asks the criterion about every item; a search drops Case 3
// items unasked, and which items those are depends on the visiting order
// and on the bound the walk prunes with. So the answer is pinned between
// BruteForce over the criterion and BruteForce over "MinMax or criterion".
// For a criterion that subsumes MinMax (Hyperbola, Exact, MinMax) the two
// coincide and every target must equal them exactly; for one that does not
// (MBR, GP) every answer must be an ordered superset of the one and an
// ordered subset of the other, and the packed targets (in memory, loaded,
// every tier), which share one walk, must agree exactly. The pointer walk's
// answer may differ from theirs there: the packed walk's box bound discards
// Case-3 items the pointer walk met early and handed to the final filter,
// and the tighter bound changes the visiting order (DESIGN.md §11).
//
// Each target is the walk it wraps: a packed target walks depth-first
// whatever the algorithm says, so its search moves knn.df_child_expansions
// under either; a pointer target's moves it under DF only.
func TestDifferentialMatrix(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)
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
			pointer, pt := buildIndex(t, substrate, fx.items, d)
			type target struct {
				name  string
				idx   Index
				tiers []QuantMode
			}
			targets := []target{{"pointer", pointer, []QuantMode{QuantNone}}}
			if pt != nil {
				path := filepath.Join(t.TempDir(), substrate+".hds")
				if err := pt.Save(path); err != nil {
					t.Fatalf("Save: %v", err)
				}
				mm, err := packed.Open(path)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer mm.Close()
				targets = append(targets,
					target{"packed", WrapPacked(pt), []QuantMode{QuantNone, QuantF32, QuantI8}},
					target{"mmap", WrapPacked(mm.Tree), []QuantMode{QuantNone, QuantF32, QuantI8}})
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
							var firstPacked []int
							for _, tg := range targets {
								for _, qm := range tg.tiers {
									SetQuantMode(qm)
									before := obsDFExpansions.Load()
									got := Search(tg.idx, sq, k, crit, algo).IDs()
									ctx := fmt.Sprintf("%s/%s/%s/%s/%v/%v q%d k=%d", fx.name, substrate, tg.name, crit.Name(), algo, qm, qi, k)
									packedWalk := tg.idx.p != nil
									if moved, df := obsDFExpansions.Load()-before, packedWalk || algo == DF; (moved > 0) != df {
										t.Fatalf("%s: knn.df_child_expansions moved by %d, want moved=%v", ctx, moved, df)
									}
									if !subsequence(lo, got) || !subsequence(got, hi) {
										t.Fatalf("%s:\n got %v\nwant between %v\n and %v", ctx, got, lo, hi)
									}
									if !packedWalk {
										continue
									}
									if firstPacked == nil {
										firstPacked = got
									}
									if !equalIDs(got, firstPacked) {
										t.Fatalf("%s:\n got %v\nwant %v (the in-memory snapshot's answer)", ctx, got, firstPacked)
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
	idx := WrapPacked(tree.Freeze())
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

// TestWholeCollectionScratchNotPooled serves whole-collection answers over a
// forest of more than maxPooledCandidates items — a hostile k clamped to n,
// and a query sphere so large that every item stays a candidate — and
// checks the next getScratch holds no candidate storage over the cap. It
// runs on one P with the collector off, so a scratch that was put back is
// the one getScratch returns.
func TestWholeCollectionScratchNotPooled(t *testing.T) {
	const d, n = 2, maxPooledCandidates + 4000
	rng := rand.New(rand.NewSource(4245))
	forest := []*packed.Tree{ssTree(randItems(rng, d, n, 1), d).Freeze()}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	sq := geom.NewSphere(make([]float64, d), 1e6)
	for _, k := range []int{10, n} {
		res, _ := SearchForest(forest, sq, k, nil)
		if len(res.Items) != n {
			t.Fatalf("k=%d: fixture answers %d items, want the whole collection of %d", k, len(res.Items), n)
		}
		sc := getScratch()
		top, buf := cap(sc.list.top.es), cap(sc.list.buf)
		putScratch(sc)
		if top > maxPooledCandidates || buf > maxPooledCandidates {
			t.Errorf("k=%d: the pool kept candidate storage of %d + %d entries, cap %d each", k, top, buf, maxPooledCandidates)
		}
	}
}

// TestTangencyPairServed serves the dominance package's tangencyTriple: a
// corpus of just its almost tangent pair, queried at radii between the true
// dmin (5.0993e-9) and the one the quartic's dropped minimiser root once
// gave (5.1604e-9). With k = 1 the final Sk is Sa, which does not dominate
// Sb (a Monte-Carlo witness shows it), so the served walk must answer both.
func TestTangencyPairServed(t *testing.T) {
	ca := []float64{-3.496551604102177e-07, 1.7250349495400196e-05, 7.900766996538488e-05}
	cb := []float64{-ca[0], -ca[1], -ca[2]}
	cq := []float64{-3.53652225622905e-07, 1.7252870866150884e-05, 7.901182599491956e-05}
	items := []Item{
		{Sphere: geom.NewSphere(ca, 7.187540365711309e-05), ID: 0},
		{Sphere: geom.NewSphere(cb, 8.985704527468684e-05), ID: 1},
	}
	forest := []*packed.Tree{ssTree(items, 3).Freeze()}
	for _, rq := range []float64{5.10e-9, 5.12e-9, 5.14e-9, 5.16e-9} {
		sq := geom.NewSphere(cq, rq)
		if kthOf(items, sq, 1).ID != 0 {
			t.Fatalf("rq=%g: Sk is not Sa", rq)
		}
		if dominance.FindWitness(items[0].Sphere, items[1].Sphere, sq, 1<<16, rand.New(rand.NewSource(1))) == nil {
			t.Fatalf("rq=%g: no witness against Dom(Sa, Sb, Sq)", rq)
		}
		res, _ := SearchForest(forest, sq, 1, nil)
		if got := sortedIDs(res.Items); !reflect.DeepEqual(got, []int{0, 1}) {
			t.Errorf("rq=%g: served answer %v, want [0 1]: Sb was dropped as dominated", rq, got)
		}
	}
}
