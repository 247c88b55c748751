package knn

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/sstree"
)

// buildFixture inserts n random items into an SS-tree, the one tree with a
// frozen form.
func buildFixture(rng *rand.Rand, d, n int) ([]Item, *sstree.Tree) {
	items := randItems(rng, d, n, 5)
	ss := sstree.New(d)
	for _, it := range items {
		ss.Insert(it)
	}
	return items, ss
}

// TestPackedMatchesPointer is the differential lock of the packed layout,
// widened over the quantization modes and restated for the child boxes: on
// both traversal strategies and every quant tier (none, f32, i8), a frozen
// SS-tree must return the exact result list (items AND order) the pointer
// path returns. The packed walk prunes on max(sphere, box) where the pointer
// path has the sphere alone, so on every query it may visit no more nodes
// and scan no more items (DomChecks and Pruned follow the candidates it met
// and may move either way) — and over each fixture of four or more
// dimensions it must visit and scan strictly fewer in total, so a box that
// silently stopped firing fails here.
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
		_, ss := buildFixture(rng, d, 2500)
		idx := WrapSSTree(ss)
		extra := Item{ID: 2501, Sphere: geom.Sphere{Center: make([]float64, d), Radius: 0.5}}
		queries := make([]geom.Sphere, 25)
		ks := make([]int, len(queries))
		for i := range queries {
			queries[i] = randQuery(rng, d, 5)
			ks[i] = 1 + rng.Intn(15)
		}
		var pointerWork, packedWork Stats // totals at QuantNone
		for _, crit := range []dominance.Criterion{dominance.Hyperbola{}, dominance.MinMax{}} {
			// Pointer answers first, then freeze and re-ask per tier.
			if idx.frozen() != nil {
				t.Fatal("fixture is frozen, the reference pass would take the packed walk")
			}
			type ans struct{ res [2]Result }
			pointer := make([]ans, len(queries))
			for i, sq := range queries {
				for _, algo := range []Algorithm{DF, HS} {
					pointer[i].res[algo] = Search(idx, sq, ks[i], crit, algo)
				}
			}
			ss.Freeze()
			exact := make([]ans, len(queries)) // the packed walk at QuantNone
			for _, qm := range quants {
				SetQuantMode(qm)
				for i, sq := range queries {
					for _, algo := range []Algorithm{DF, HS} {
						got := Search(idx, sq, ks[i], crit, algo)
						want := pointer[i].res[algo]
						ctx := fmt.Sprintf("d=%d crit=%s algo=%v quant=%s q=%d", d, crit.Name(), algo, qm, i)
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
						if got.Stats.NodesVisited > want.Stats.NodesVisited || got.Stats.Items > want.Stats.Items {
							t.Fatalf("%s: packed walk did more than the pointer walk\n got %+v\nwant at most %+v",
								ctx, got.Stats, want.Stats)
						}
					}
				}
			}
			SetQuantMode(QuantNone)
			ss.Insert(extra) // thaw: the next criterion's reference pass needs the pointer tree
		}
		if d >= 4 && (packedWork.NodesVisited >= pointerWork.NodesVisited || packedWork.Items >= pointerWork.Items) {
			t.Fatalf("d=%d: the box bound pruned nothing: packed %d nodes / %d items, pointer %d / %d",
				d, packedWork.NodesVisited, packedWork.Items, pointerWork.NodesVisited, pointerWork.Items)
		}
	}
}

// TestPackedMatchesBruteForce anchors the frozen path to ground truth
// directly, independent of the pointer comparison.
func TestPackedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	d := 4
	items, ss := buildFixture(rng, d, 2000)
	ss.Freeze()
	for trial := 0; trial < 20; trial++ {
		sq := randQuery(rng, d, 5)
		k := 1 + rng.Intn(12)
		want := BruteForce(items, sq, k, dominance.Hyperbola{})
		for _, algo := range []Algorithm{DF, HS} {
			got := Search(WrapSSTree(ss), sq, k, dominance.Hyperbola{}, algo)
			if !equalIDs(sortedIDs(got.Items), sortedIDs(want.Items)) {
				t.Fatalf("trial=%d algo=%v: frozen answer differs from brute force", trial, algo)
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
	_, ss := buildFixture(rng, d, 1500)
	idx := WrapSSTree(ss)
	queries := make([]geom.Sphere, 32)
	want := make([]Result, len(queries))
	for i := range queries {
		queries[i] = randQuery(rng, d, 5)
		want[i] = Search(idx, queries[i], 8, dominance.Hyperbola{}, HS)
	}
	ss.Freeze()

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
					got := Search(idx, sq, 8, dominance.Hyperbola{}, HS)
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
	for _, it := range items {
		ss.Insert(it)
	}
	checkFrozen := func(name string, frozen func() bool, want bool) {
		t.Helper()
		if got := frozen(); got != want {
			t.Fatalf("%s: Frozen() = %v, want %v", name, got, want)
		}
	}

	// Freeze → mutation thaws → re-freeze sees the change.
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

// TestPackedEmptyTree: searching a frozen empty SS-tree returns the empty
// result, as the pointer path does.
func TestPackedEmptyTree(t *testing.T) {
	ss := sstree.New(3)
	ss.Freeze()
	res := Search(WrapSSTree(ss), geom.Sphere{Center: []float64{0, 0, 0}, Radius: 1}, 3, dominance.MinMax{}, DF)
	if len(res.Items) != 0 {
		t.Fatalf("empty frozen tree returned %d items", len(res.Items))
	}
}
