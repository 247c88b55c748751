package knn

import (
	"math/rand"
	"path/filepath"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/mtree"
	"hyperdom/internal/packed"
	"hyperdom/internal/rtree"
	"hyperdom/internal/sstree"
	"hyperdom/internal/tree"
)

// buildIndex builds and fills one substrate's tree and returns its adapter
// and, for the SS-tree, the packed snapshot it froze to (the M-tree and the
// R-tree have no frozen form: nil).
func buildIndex(t *testing.T, substrate string, items []Item, d int) (Index, *packed.Tree) {
	t.Helper()
	fill := tree.WithMaxFill(16)
	switch substrate {
	case "sstree":
		tr := sstree.New(d, fill)
		for _, it := range items {
			tr.Insert(it)
		}
		return WrapSSTree(tr), tr.Freeze()
	case "mtree":
		tr := mtree.New(d, fill)
		for _, it := range items {
			tr.Insert(it)
		}
		return WrapMTree(tr), nil
	case "rtree":
		tr := rtree.New(d, fill)
		for _, it := range items {
			tr.Insert(it)
		}
		return WrapRTree(tr), nil
	}
	t.Fatalf("unknown substrate %q", substrate)
	return Index{}, nil
}

func eqResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if want.K != got.K || len(want.Items) != len(got.Items) {
		t.Fatalf("%s: %d items (k=%d), want %d (k=%d)", label, len(got.Items), got.K, len(want.Items), want.K)
	}
	for i := range want.Items {
		w, g := want.Items[i], got.Items[i]
		if w.ID != g.ID || w.Sphere.Radius != g.Sphere.Radius {
			t.Fatalf("%s: item %d = {id %d, r %v}, want {id %d, r %v}", label, i, g.ID, g.Sphere.Radius, w.ID, w.Sphere.Radius)
		}
		for j := range w.Sphere.Center {
			if w.Sphere.Center[j] != g.Sphere.Center[j] {
				t.Fatalf("%s: item %d center[%d] = %v, want %v", label, i, j, g.Sphere.Center[j], w.Sphere.Center[j])
			}
		}
	}
	if want.Stats != got.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
}

// TestLoadedSnapshotBitIdentity is the round-trip lock (ISSUE 10): a
// snapshot loaded from disk — through the copying path and the mmap path
// alike — must answer every query with bit-identical result sets AND
// bit-identical knn.Stats versus the in-memory original, across both
// traversal strategies and all three quantization tiers.
func TestLoadedSnapshotBitIdentity(t *testing.T) {
	prev := SetQuantMode(QuantNone)
	defer SetQuantMode(prev)
	rng := rand.New(rand.NewSource(1010))
	const d, n = 4, 3000
	t.Run("sstree", func(t *testing.T) {
		_, pt := buildIndex(t, "sstree", randItems(rng, d, n, 2), d)
		orig := WrapPacked(pt)
		path := filepath.Join(t.TempDir(), "sstree.hds")
		if err := pt.Save(path); err != nil {
			t.Fatalf("Save: %v", err)
		}
		mm, err := packed.Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer mm.Close()
		cp, err := packed.Load(path)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		defer cp.Close()
		loaded := []struct {
			name string
			idx  Index
		}{
			{"mmap", WrapPacked(mm.Tree)},
			{"copy", WrapPacked(cp.Tree)},
		}
		queries := make([]geom.Sphere, 12)
		for i := range queries {
			queries[i] = randQuery(rng, d, 2)
		}
		for _, qm := range []QuantMode{QuantNone, QuantF32, QuantI8} {
			SetQuantMode(qm)
			for _, algo := range []Algorithm{DF, HS} {
				for qi, sq := range queries {
					k := 1 + qi
					want := Search(orig, sq, k, dominance.Hyperbola{}, algo)
					for _, ld := range loaded {
						got := Search(ld.idx, sq, k, dominance.Hyperbola{}, algo)
						eqResult(t, qm.String()+"/"+algo.String()+"/"+ld.name, want, got)
					}
				}
			}
		}
		SetQuantMode(QuantNone)
	})
}

// TestLoadedSnapshotEmpty: an empty snapshot round-trips and serves empty
// answers through both load paths.
func TestLoadedSnapshotEmpty(t *testing.T) {
	tr := sstree.New(3)
	pt := tr.Freeze()
	path := filepath.Join(t.TempDir(), "empty.hds")
	if err := pt.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	s, err := packed.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	res := Search(WrapPacked(s.Tree), geom.Sphere{Center: []float64{0, 0, 0}, Radius: 1}, 3, dominance.Hyperbola{}, HS)
	if len(res.Items) != 0 {
		t.Fatalf("%d items from an empty snapshot", len(res.Items))
	}
}

// TestSearchAllocsLoaded holds the loaded-snapshot path (mmap-backed
// WrapPacked) to the same steady-state allocation budget as the in-memory
// packed path: loading from disk must not reintroduce per-search
// allocation.
func TestSearchAllocsLoaded(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-item fixture")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ss, queries := allocFixture(10000)
	pt := ss.Freeze()
	path := filepath.Join(t.TempDir(), "alloc.hds")
	if err := pt.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	s, err := packed.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	loaded := WrapPacked(s.Tree)
	for _, algo := range []Algorithm{DF, HS} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			q := 0
			for i := 0; i < 4; i++ {
				Search(loaded, queries[i], 10, dominance.Hyperbola{}, algo)
			}
			allocs := testing.AllocsPerRun(64, func() {
				Search(loaded, queries[q%len(queries)], 10, dominance.Hyperbola{}, algo)
				q++
			})
			if allocs > searchAllocBudget {
				t.Errorf("%v loaded: %.1f allocs per search, budget %d", algo, allocs, searchAllocBudget)
			}
		})
	}
}
