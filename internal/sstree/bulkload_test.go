package sstree

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/packed"
)

func TestBulkLoadInvariantsAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sizes := []int{1, 2, 3, 5, 24, 25, 26, 48, 49, 100, 577, 1000, 2431, 5000}
	for _, n := range sizes {
		items := make([]Item, n)
		for i := range items {
			items[i] = randItem(rng, 4, i)
		}
		tr := New(4)
		tr.BulkLoad(items)
		if tr.Len() != n {
			t.Errorf("n=%d: Len=%d", n, tr.Len())
		}
		if msg := tr.CheckInvariants(); msg != "" {
			t.Errorf("n=%d: %s", n, msg)
		}
	}
}

func TestBulkLoadMatchesInsertResults(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	items := make([]Item, 3000)
	for i := range items {
		items[i] = randItem(rng, 3, i)
	}
	bulk := New(3)
	bulk.BulkLoad(items)
	inc := New(3)
	for _, it := range items {
		inc.Insert(it)
	}
	for trial := 0; trial < 20; trial++ {
		q := randItem(rng, 3, -1).Sphere
		q.Radius += 5 * rng.Float64()
		a := idsOf(bulk.RangeSearch(q))
		b := idsOf(inc.RangeSearch(q))
		if !equalInts(a, b) {
			t.Fatalf("trial %d: bulk answer (%d) differs from incremental (%d)", trial, len(a), len(b))
		}
	}
}

func TestBulkLoadPanics(t *testing.T) {
	tr := New(2)
	tr.Insert(Item{Sphere: geom.NewSphere([]float64{0, 0}, 1), ID: 0})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BulkLoad into non-empty tree did not panic")
			}
		}()
		tr.BulkLoad([]Item{{Sphere: geom.NewSphere([]float64{1, 1}, 1), ID: 1}})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BulkLoad with wrong dimensionality did not panic")
			}
		}()
		fresh := New(2)
		fresh.BulkLoad([]Item{{Sphere: geom.NewSphere([]float64{1, 1, 1}, 1), ID: 1}})
	}()
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := New(3)
	tr.BulkLoad(nil)
	if tr.Len() != 0 {
		t.Error("BulkLoad(nil) produced items")
	}
}

func TestBulkLoadDoesNotRetainInput(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	items := make([]Item, 200)
	for i := range items {
		items[i] = randItem(rng, 2, i)
	}
	tr := New(2)
	tr.BulkLoad(items)
	// Scrambling the caller's slice must not affect the tree.
	for i := range items {
		items[i] = Item{Sphere: geom.NewSphere([]float64{-999, -999}, 0), ID: -1}
	}
	seen := 0
	tr.Visit(func(it Item) bool {
		if it.ID == -1 {
			t.Fatal("tree retained the caller's slice")
		}
		seen++
		return true
	})
	if seen != 200 {
		t.Errorf("visited %d items", seen)
	}
}

// roundTrip writes tr's frozen form as a packed snapshot — the one on-disk
// format — opens the bytes and checks the reopened tree has tr's shape and
// re-saves to the same bytes.
func roundTrip(t *testing.T, tr *Tree) {
	t.Helper()
	var want, got bytes.Buffer
	if _, err := tr.Freeze().WriteTo(&want); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	back, err := packed.OpenBytes(want.Bytes())
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	if back.Len() != tr.Len() || back.Dim() != tr.Dim() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", back.Len(), back.Dim(), tr.Len(), tr.Dim())
	}
	if _, err := back.WriteTo(&got); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("re-saved snapshot differs (%d vs %d bytes)", got.Len(), want.Len())
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	tr, _ := buildTree(t, rand.New(rand.NewSource(24)), 5, 2000)
	roundTrip(t, tr)
}

func TestSerializeEmptyTree(t *testing.T) {
	roundTrip(t, New(3))
}

func TestBulkLoadedTreeSerializes(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	items := make([]Item, 700)
	for i := range items {
		items[i] = randItem(rng, 3, i)
	}
	tr := New(3)
	tr.BulkLoad(items)
	roundTrip(t, tr)
}

func BenchmarkBulkLoadVsInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	items := make([]Item, 20000)
	for i := range items {
		items[i] = randItem(rng, 6, i)
	}
	b.Run("Insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := New(6)
			for _, it := range items {
				tr.Insert(it)
			}
		}
	})
	b.Run("BulkLoad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := New(6)
			tr.BulkLoad(items)
		}
	})
}

func idsOf(items []Item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	sort.Ints(out)
	return out
}
