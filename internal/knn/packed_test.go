package knn

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/mtree"
	"hyperdom/internal/rtree"
	"hyperdom/internal/sstree"
)

// frozenFixture builds the same dataset into all three substrates and
// returns (pointer index, freeze func) pairs per substrate name.
type frozenFixture struct {
	name   string
	idx    Index
	freeze func()
	thaw   func() // mutate once so the snapshot drops
}

func buildFixtures(rng *rand.Rand, d, n int) ([]Item, []frozenFixture) {
	items := randItems(rng, d, n, 5)
	ss := sstree.New(d)
	mt := mtree.New(d)
	rt := rtree.New(d)
	for _, it := range items {
		ss.Insert(it)
		mt.Insert(it)
		rt.Insert(it)
	}
	extra := Item{ID: n + 1, Sphere: geom.Sphere{Center: make([]float64, d), Radius: 0.5}}
	return items, []frozenFixture{
		{"sstree", WrapSSTree(ss), func() { ss.Freeze() }, func() { ss.Insert(extra) }},
		{"mtree", WrapMTree(mt), func() { mt.Freeze() }, func() { mt.Insert(extra) }},
		{"rtree", WrapRTree(rt), func() { rt.Freeze() }, func() { rt.Insert(extra) }},
	}
}

// TestPackedMatchesPointer is the differential lock of ISSUE 5, widened by
// ISSUE 6 over the quantization modes and restated by ISSUE 24: on every
// substrate, both traversal strategies and every quant tier (none, f32,
// i8), a frozen tree must return the exact result list (items AND order) the
// pointer path returns. What it may do on the way depends on the bounds:
//
//   - rtree: the packed keys are the pointer path's bit for bit, so the work
//     Stats are equal too;
//   - sstree, mtree: the packed walk prunes on max(sphere, box) where the
//     pointer path has the sphere alone, so on every query it may visit no
//     more nodes and scan no more items (DomChecks and Pruned follow the
//     candidates it met and may move either way) — and over each fixture of
//     four or more dimensions it must visit and scan strictly fewer in
//     total, so a box that silently stopped firing fails here.
//
// Within the packed walk the tiers keep even Stats identical: a coarse prune
// takes exactly the branch the exact value would have taken — the narrow
// pass only decides *when* the exact block is read, never what the
// traversal does.
func TestPackedMatchesPointer(t *testing.T) {
	prev := SetQuantMode(QuantNone)
	defer SetQuantMode(prev)
	quants := []QuantMode{QuantNone, QuantF32, QuantI8}
	rng := rand.New(rand.NewSource(501))
	for _, d := range []int{2, 5, 8} {
		_, fixtures := buildFixtures(rng, d, 2500)
		queries := make([]geom.Sphere, 25)
		ks := make([]int, len(queries))
		for i := range queries {
			queries[i] = randQuery(rng, d, 5)
			ks[i] = 1 + rng.Intn(15)
		}
		for _, fx := range fixtures {
			var pointerWork, packedWork Stats // totals at QuantNone
			for _, crit := range []dominance.Criterion{dominance.Hyperbola{}, dominance.MinMax{}} {
				// Pointer answers first, then freeze and re-ask per tier.
				if fx.idx.frozen() != nil {
					t.Fatalf("%s: fixture is frozen, the reference pass would take the packed walk", fx.name)
				}
				type ans struct{ res [2]Result }
				pointer := make([]ans, len(queries))
				for i, sq := range queries {
					for _, algo := range []Algorithm{DF, HS} {
						pointer[i].res[algo] = Search(fx.idx, sq, ks[i], crit, algo)
					}
				}
				fx.freeze()
				exact := make([]ans, len(queries)) // the packed walk at QuantNone
				for _, qm := range quants {
					SetQuantMode(qm)
					for i, sq := range queries {
						for _, algo := range []Algorithm{DF, HS} {
							got := Search(fx.idx, sq, ks[i], crit, algo)
							want := pointer[i].res[algo]
							ctx := fmt.Sprintf("%s d=%d crit=%s algo=%v quant=%s q=%d", fx.name, d, crit.Name(), algo, qm, i)
							if !reflect.DeepEqual(got.Items, want.Items) {
								t.Fatalf("%s: packed items differ\n got %v\nwant %v",
									ctx, sortedIDs(got.Items), sortedIDs(want.Items))
							}
							if qm == QuantNone {
								exact[i].res[algo] = got
								pointerWork.NodesVisited += want.Stats.NodesVisited
								pointerWork.Items += want.Stats.Items
								packedWork.NodesVisited += got.Stats.NodesVisited
								packedWork.Items += got.Stats.Items
							} else if got.Stats != exact[i].res[algo].Stats {
								t.Fatalf("%s: stats differ from the exact packed walk\n got %+v\nwant %+v",
									ctx, got.Stats, exact[i].res[algo].Stats)
							}
							switch {
							case fx.name == "rtree":
								if got.Stats != want.Stats {
									t.Fatalf("%s: packed stats differ\n got %+v\nwant %+v", ctx, got.Stats, want.Stats)
								}
							case got.Stats.NodesVisited > want.Stats.NodesVisited || got.Stats.Items > want.Stats.Items:
								t.Fatalf("%s: packed walk did more than the pointer walk\n got %+v\nwant at most %+v",
									ctx, got.Stats, want.Stats)
							}
						}
					}
				}
				SetQuantMode(QuantNone)
				fx.thaw() // the next criterion's reference pass needs the pointer tree
			}
			if fx.name != "rtree" && d >= 4 &&
				(packedWork.NodesVisited >= pointerWork.NodesVisited || packedWork.Items >= pointerWork.Items) {
				t.Fatalf("%s d=%d: the box bound pruned nothing: packed %d nodes / %d items, pointer %d / %d",
					fx.name, d, packedWork.NodesVisited, packedWork.Items, pointerWork.NodesVisited, pointerWork.Items)
			}
		}
	}
}

// TestPackedMatchesBruteForce anchors the frozen path to ground truth
// directly, independent of the pointer comparison.
func TestPackedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	d := 4
	items, fixtures := buildFixtures(rng, d, 2000)
	for _, fx := range fixtures {
		fx.freeze()
	}
	for trial := 0; trial < 20; trial++ {
		sq := randQuery(rng, d, 5)
		k := 1 + rng.Intn(12)
		want := BruteForce(items, sq, k, dominance.Hyperbola{})
		for _, fx := range fixtures {
			for _, algo := range []Algorithm{DF, HS} {
				got := Search(fx.idx, sq, k, dominance.Hyperbola{}, algo)
				if !equalIDs(sortedIDs(got.Items), sortedIDs(want.Items)) {
					t.Fatalf("%s trial=%d algo=%v: frozen answer differs from brute force", fx.name, trial, algo)
				}
			}
		}
	}
}

// TestQuantModeFlipDuringSearches hammers concurrent quantized searches
// while another goroutine flips the process-wide mode across all tiers:
// every search must still return the pointer answer, whatever tier it
// happened to stash at dispatch (the mode is read once per search, so no
// traversal can straddle tiers), and under -race this doubles as the data
// race lock on the quantized two-phase path.
func TestQuantModeFlipDuringSearches(t *testing.T) {
	prev := SetQuantMode(QuantNone)
	defer SetQuantMode(prev)
	rng := rand.New(rand.NewSource(504))
	d := 6
	_, fixtures := buildFixtures(rng, d, 1500)
	fx := fixtures[0] // sstree
	queries := make([]geom.Sphere, 32)
	want := make([]Result, len(queries))
	for i := range queries {
		queries[i] = randQuery(rng, d, 5)
		want[i] = Search(fx.idx, queries[i], 8, dominance.Hyperbola{}, HS)
	}
	fx.freeze()

	stop := make(chan struct{})
	flipDone := make(chan struct{})
	go func() {
		defer close(flipDone)
		modes := []QuantMode{QuantNone, QuantF32, QuantI8}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				SetQuantMode(modes[i%len(modes)])
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, sq := range queries {
					got := Search(fx.idx, sq, 8, dominance.Hyperbola{}, HS)
					if !reflect.DeepEqual(got.Items, want[i].Items) {
						t.Errorf("q=%d round=%d: items diverged under mode flips", i, round)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-flipDone
}

// TestAutoThaw locks the mutation half of the freeze/thaw contract: any
// mutation drops the snapshot, searches keep answering correctly off the
// pointer path, and a re-freeze picks up the mutated contents.
func TestAutoThaw(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	d := 3
	items := randItems(rng, d, 500, 3)

	ss := sstree.New(d)
	mt := mtree.New(d)
	rt := rtree.New(d)
	for _, it := range items {
		ss.Insert(it)
		mt.Insert(it)
		rt.Insert(it)
	}
	checkFrozen := func(name string, frozen func() bool, want bool) {
		t.Helper()
		if got := frozen(); got != want {
			t.Fatalf("%s: Frozen() = %v, want %v", name, got, want)
		}
	}

	// Each substrate: freeze → mutation thaws → re-freeze sees the change.
	newIt := Item{ID: 9001, Sphere: geom.Sphere{Center: make([]float64, d), Radius: 0.25}}

	ss.Freeze()
	checkFrozen("sstree", func() bool { _, ok := ss.Frozen(); return ok }, true)
	ss.Insert(newIt)
	checkFrozen("sstree after Insert", func() bool { _, ok := ss.Frozen(); return ok }, false)
	if pt := ss.Freeze(); pt.Len() != len(items)+1 {
		t.Fatalf("sstree refreeze: %d items, want %d", pt.Len(), len(items)+1)
	}
	ss.Delete(newIt)
	checkFrozen("sstree after Delete", func() bool { _, ok := ss.Frozen(); return ok }, false)

	mt.Freeze()
	mt.Insert(newIt)
	checkFrozen("mtree after Insert", func() bool { _, ok := mt.Frozen(); return ok }, false)
	mt.Delete(newIt)

	rt.Freeze()
	rt.Insert(newIt)
	checkFrozen("rtree after Insert", func() bool { _, ok := rt.Frozen(); return ok }, false)
	rt.Delete(newIt)

	// BulkLoad thaws too (fresh tree: freeze empty, then load).
	ss2 := sstree.New(d)
	ss2.Freeze()
	checkFrozen("empty sstree", func() bool { _, ok := ss2.Frozen(); return ok }, true)
	ss2.BulkLoad(items)
	checkFrozen("sstree after BulkLoad", func() bool { _, ok := ss2.Frozen(); return ok }, false)
	if pt := ss2.Freeze(); pt.Len() != len(items) {
		t.Fatalf("bulk-loaded freeze: %d items, want %d", pt.Len(), len(items))
	}

	// A search against the thawed-and-refrozen tree answers correctly.
	sq := randQuery(rng, d, 3)
	want := BruteForce(items, sq, 5, dominance.Hyperbola{})
	got := Search(WrapSSTree(ss2), sq, 5, dominance.Hyperbola{}, HS)
	if !equalIDs(sortedIDs(got.Items), sortedIDs(want.Items)) {
		t.Fatal("search after thaw+refreeze differs from brute force")
	}
}

// TestPackedEmptyTree: searching a frozen empty substrate returns the empty
// result, as the pointer path does.
func TestPackedEmptyTree(t *testing.T) {
	ss := sstree.New(3)
	ss.Freeze()
	res := Search(WrapSSTree(ss), geom.Sphere{Center: []float64{0, 0, 0}, Radius: 1}, 3, dominance.MinMax{}, DF)
	if len(res.Items) != 0 {
		t.Fatalf("empty frozen tree returned %d items", len(res.Items))
	}
}
