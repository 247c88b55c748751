package knn

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// every quant tier (none, f32, i8), an SS-tree's snapshot must return the
// exact result list (items AND order) the pointer path returns. The packed
// walk is depth-first whatever Algorithm it is given, so its reference is
// the pointer DF walk for either, and the two Algorithms must give it the
// same Stats. It prunes on max(sphere, box) where the pointer path has the
// sphere alone, so on every query it may visit no more nodes and scan no
// more items (DomChecks and Pruned follow the candidates it met and may
// move either way) — and over each fixture of four or more dimensions it
// must visit and scan strictly fewer in total, so a box that silently
// stopped firing fails here.
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
		idx, pk := WrapSSTree(ss), WrapPacked(ss.Freeze())
		queries := make([]geom.Sphere, 25)
		ks := make([]int, len(queries))
		for i := range queries {
			queries[i] = randQuery(rng, d, 5)
			ks[i] = 1 + rng.Intn(15)
		}
		var pointerWork, packedWork Stats // totals at QuantNone
		for _, crit := range []dominance.Criterion{dominance.Hyperbola{}, dominance.MinMax{}} {
			// Pointer DF answers first, then the snapshot's per tier.
			pointer := make([]Result, len(queries))
			for i, sq := range queries {
				pointer[i] = Search(idx, sq, ks[i], crit, DF)
			}
			exact := make([]Result, len(queries)) // the packed walk at QuantNone under DF
			for _, qm := range quants {
				SetQuantMode(qm)
				for i, sq := range queries {
					for _, algo := range []Algorithm{DF, HS} {
						got := Search(pk, sq, ks[i], crit, algo)
						want := pointer[i]
						ctx := fmt.Sprintf("d=%d crit=%s algo=%v quant=%s q=%d", d, crit.Name(), algo, qm, i)
						if !reflect.DeepEqual(got.Items, want.Items) {
							t.Fatalf("%s: packed items differ\n got %v\nwant %v",
								ctx, sortedIDs(got.Items), sortedIDs(want.Items))
						}
						if qm == QuantNone && algo == DF {
							exact[i] = got
							pointerWork.NodesVisited += want.Stats.NodesVisited
							pointerWork.Items += want.Stats.Items
							packedWork.NodesVisited += got.Stats.NodesVisited
							packedWork.Items += got.Stats.Items
						} else if got.Stats != exact[i].Stats {
							t.Fatalf("%s: stats differ from the exact packed DF walk\n got %+v\nwant %+v",
								ctx, got.Stats, exact[i].Stats)
						}
						if got.Stats.NodesVisited > want.Stats.NodesVisited || got.Stats.Items > want.Stats.Items {
							t.Fatalf("%s: packed walk did more than the pointer DF walk\n got %+v\nwant at most %+v",
								ctx, got.Stats, want.Stats)
						}
					}
				}
			}
			SetQuantMode(QuantNone)
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
	pk := WrapPacked(ss.Freeze())
	for trial := 0; trial < 20; trial++ {
		sq := randQuery(rng, d, 5)
		k := 1 + rng.Intn(12)
		want := BruteForce(items, sq, k, dominance.Hyperbola{})
		for _, algo := range []Algorithm{DF, HS} {
			got := Search(pk, sq, k, dominance.Hyperbola{}, algo)
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
	pk := WrapPacked(ss.Freeze())

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
					got := Search(pk, sq, 8, dominance.Hyperbola{}, HS)
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

// TestFreezeIsAValue: Freeze builds a snapshot and the tree keeps nothing,
// so a snapshot taken before a mutation keeps its length and its answers,
// and only a new Freeze contains the mutation.
func TestFreezeIsAValue(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	d := 3
	items, ss := buildFixture(rng, d, 500)
	sq := randQuery(rng, d, 3)
	const k = 5
	before := ss.Freeze()
	want := make([]Result, 2)
	for _, algo := range []Algorithm{DF, HS} {
		want[algo] = Search(WrapPacked(before), sq, k, dominance.Hyperbola{}, algo)
	}
	if truth := BruteForce(items, sq, k, dominance.Hyperbola{}); !equalIDs(sortedIDs(want[HS].Items), sortedIDs(truth.Items)) {
		t.Fatal("snapshot answer differs from brute force")
	}

	// An item at the query's centre is among the nearest: every answer that
	// sees it holds it.
	newIt := Item{ID: 9001, Sphere: geom.Sphere{Center: append([]float64(nil), sq.Center...), Radius: 0.25}}
	ss.Insert(newIt)
	if before.Len() != len(items) {
		t.Fatalf("earlier snapshot holds %d items after an Insert, want %d", before.Len(), len(items))
	}
	for _, algo := range []Algorithm{DF, HS} {
		if got := Search(WrapPacked(before), sq, k, dominance.Hyperbola{}, algo); !reflect.DeepEqual(got, want[algo]) {
			t.Fatalf("%v: earlier snapshot's answer changed after an Insert\n got %v\nwant %v", algo, got.IDs(), want[algo].IDs())
		}
	}

	after := ss.Freeze()
	if after.Len() != len(items)+1 {
		t.Fatalf("new snapshot holds %d items, want %d", after.Len(), len(items)+1)
	}
	truth := BruteForce(append(items, newIt), sq, k, dominance.Hyperbola{})
	for _, algo := range []Algorithm{DF, HS} {
		got := Search(WrapPacked(after), sq, k, dominance.Hyperbola{}, algo)
		if !slices.Contains(got.IDs(), newIt.ID) || !equalIDs(sortedIDs(got.Items), sortedIDs(truth.Items)) {
			t.Fatalf("%v: new snapshot answers %v, want %v", algo, got.IDs(), truth.IDs())
		}
	}
}

// TestPackedEmptyTree: searching the snapshot of an empty SS-tree returns
// the empty result, as the pointer path does.
func TestPackedEmptyTree(t *testing.T) {
	res := Search(WrapPacked(sstree.New(3).Freeze()), geom.Sphere{Center: []float64{0, 0, 0}, Radius: 1}, 3, dominance.MinMax{}, DF)
	if len(res.Items) != 0 {
		t.Fatalf("empty frozen tree returned %d items", len(res.Items))
	}
}
