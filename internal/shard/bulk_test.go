package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hyperdom/internal/dataset"
	"hyperdom/internal/knn"
	"hyperdom/internal/packed"
	"hyperdom/internal/sstree"
)

// TestBulkBuiltMatchesInserted compares Build, which bulk-loads every shard,
// with a reference that fills the same partition one Insert at a time: over
// the serving benchmark's four corpus shapes at a twentieth of their size
// and 1, 2 and 4 shards, the answers must be the same ids in the same order,
// and the bulk-built shards must not make the walk reach more than 1.1× the
// items.
func TestBulkBuiltMatchesInserted(t *testing.T) {
	corpora := []struct {
		name string
		n, d int
		mu   float64
	}{
		{"thin_d4", 5000, 4, 0.2},
		{"scan_d10", 5000, 10, 1},
		{"fat_d10", 500, 10, 10},
		{"mixed_snap", 2500, 6, 2},
	}
	for _, c := range corpora {
		items := dataset.Spheres(dataset.SyntheticCenters(c.n, c.d, dataset.Gaussian, 1), dataset.GaussianRadii(c.mu), 2)
		rng := rand.New(rand.NewSource(3))
		queries := make([]int, 60)
		for i := range queries {
			queries[i] = rng.Intn(len(items))
		}
		for _, shards := range []int{1, 2, 4} {
			ctx := fmt.Sprintf("%s/%d", c.name, shards)
			x, err := Build(items, c.d, Options{Shards: shards, Algorithm: knn.HS})
			if err != nil {
				t.Fatal(err)
			}
			parts := partition(items, c.d, shards)
			ref := make([]*packed.Tree, len(parts))
			for i, part := range parts {
				tr := sstree.New(c.d)
				for _, it := range part {
					tr.Insert(it)
				}
				ref[i] = tr.Freeze()
			}
			var bulkItems, refItems int
			for _, qi := range queries {
				sq := items[qi].Sphere
				got := x.Search(sq, 10)
				want, _ := knn.SearchForest(ref, sq, 10, nil)
				if !slices.Equal(got.IDs(), want.IDs()) {
					t.Fatalf("%s: query %d answers %v, the inserted shards %v", ctx, qi, got.IDs(), want.IDs())
				}
				bulkItems += got.Stats.Items
				refItems += want.Stats.Items
			}
			if float64(bulkItems) > 1.1*float64(refItems) {
				t.Errorf("%s: bulk-built shards reach %d items, inserted %d: more than 1.1×", ctx, bulkItems, refItems)
			}
			x.Close()
		}
	}
}
