package hyperdom_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"hyperdom"
)

// goldenIndex is what the three substrates share through the root API.
type goldenIndex interface {
	Insert(hyperdom.Item)
	Delete(hyperdom.Item) bool
	Len() int
}

// goldenCorpus draws n clustered hyperspheres from a fixed seed, so leaves
// fill unevenly and both the split and the delete-underflow paths are
// exercised.
func goldenCorpus(n, d int, seed int64) []hyperdom.Item {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, 8)
	for i := range centers {
		centers[i] = make([]float64, d)
		for j := range centers[i] {
			centers[i][j] = rng.Float64() * 100
		}
	}
	items := make([]hyperdom.Item, n)
	for i := range items {
		c := make([]float64, d)
		base := centers[rng.Intn(len(centers))]
		for j := range c {
			c[j] = base[j] + rng.NormFloat64()*6
		}
		items[i] = hyperdom.Item{ID: i, Sphere: hyperdom.NewSphere(c, rng.Float64()*2)}
	}
	return items
}

// TestFrozenBytesGolden pins the CRC-32C of the frozen snapshot every
// substrate produces for a fixed insert/delete sequence. The values were
// recorded before the SS-/M-/R-tree copies were folded into one skeleton;
// the fold's invariant is that none of them moves, i.e. every substrate
// keeps its exact arithmetic, tie-breaks and entry order.
func TestFrozenBytesGolden(t *testing.T) {
	golden := map[string]uint32{
		"sstree/d2/fill0/insert":      0xd7a30c95,
		"sstree/d2/fill0/deleted":     0xf92a2c58,
		"sstree/d2/fill0/reinserted":  0x64b8d299,
		"mtree/d2/fill0/insert":       0xa33c0719,
		"mtree/d2/fill0/deleted":      0xfa3ea10e,
		"mtree/d2/fill0/reinserted":   0x4fab74ad,
		"rtree/d2/fill0/insert":       0x73343d19,
		"rtree/d2/fill0/deleted":      0x61af303f,
		"rtree/d2/fill0/reinserted":   0xfd7cb074,
		"sstree/d2/fill0/bulk":        0xb87e1d23,
		"sstree/d2/fill8/insert":      0x68ac8735,
		"sstree/d2/fill8/deleted":     0xc22b8496,
		"sstree/d2/fill8/reinserted":  0xa05cca36,
		"mtree/d2/fill8/insert":       0xb5d718a7,
		"mtree/d2/fill8/deleted":      0x7a358500,
		"mtree/d2/fill8/reinserted":   0x7b891990,
		"rtree/d2/fill8/insert":       0xc6dd6680,
		"rtree/d2/fill8/deleted":      0x69da3cf8,
		"rtree/d2/fill8/reinserted":   0x65a9ae5a,
		"sstree/d2/fill8/bulk":        0x10e600ca,
		"sstree/d4/fill0/insert":      0x807aa41f,
		"sstree/d4/fill0/deleted":     0xfa4ed868,
		"sstree/d4/fill0/reinserted":  0x638e5ac5,
		"mtree/d4/fill0/insert":       0xd41c63fc,
		"mtree/d4/fill0/deleted":      0x092cb44a,
		"mtree/d4/fill0/reinserted":   0x13e58cf8,
		"rtree/d4/fill0/insert":       0xeb298562,
		"rtree/d4/fill0/deleted":      0x1a6031b3,
		"rtree/d4/fill0/reinserted":   0x48f6fcaf,
		"sstree/d4/fill0/bulk":        0x356fdc60,
		"sstree/d4/fill8/insert":      0x16c9aa7b,
		"sstree/d4/fill8/deleted":     0x64cf4ffd,
		"sstree/d4/fill8/reinserted":  0xea156e09,
		"mtree/d4/fill8/insert":       0x7a40ea40,
		"mtree/d4/fill8/deleted":      0x1fc6f47b,
		"mtree/d4/fill8/reinserted":   0x72450756,
		"rtree/d4/fill8/insert":       0x5ba43843,
		"rtree/d4/fill8/deleted":      0x7b1d1dc7,
		"rtree/d4/fill8/reinserted":   0xcbd8f0ee,
		"sstree/d4/fill8/bulk":        0xdd18b645,
		"sstree/d10/fill0/insert":     0xcb1dd3df,
		"sstree/d10/fill0/deleted":    0x86642ab4,
		"sstree/d10/fill0/reinserted": 0x07c06f8b,
		"mtree/d10/fill0/insert":      0xf4e5abb2,
		"mtree/d10/fill0/deleted":     0x3d36d05b,
		"mtree/d10/fill0/reinserted":  0x37373d05,
		"rtree/d10/fill0/insert":      0x052d1c7a,
		"rtree/d10/fill0/deleted":     0xb7d1c283,
		"rtree/d10/fill0/reinserted":  0x84a17210,
		"sstree/d10/fill0/bulk":       0xded5c32b,
		"sstree/d10/fill8/insert":     0x0ec76a04,
		"sstree/d10/fill8/deleted":    0x0f773df8,
		"sstree/d10/fill8/reinserted": 0xf3d5a240,
		"mtree/d10/fill8/insert":      0x982ac112,
		"mtree/d10/fill8/deleted":     0x9325f5b1,
		"mtree/d10/fill8/reinserted":  0xc6b624b4,
		"rtree/d10/fill8/insert":      0x68e9541d,
		"rtree/d10/fill8/deleted":     0x374db888,
		"rtree/d10/fill8/reinserted":  0x030f834a,
		"sstree/d10/fill8/bulk":       0xfd1a5709,
	}
	crc := func(t *testing.T, wt io.WriterTo) uint32 {
		t.Helper()
		var buf bytes.Buffer
		if _, err := wt.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return crc32.Checksum(buf.Bytes(), crc32.MakeTable(crc32.Castagnoli))
	}
	check := func(t *testing.T, name string, got uint32) {
		t.Helper()
		want, ok := golden[name]
		if !ok {
			t.Errorf("no golden value for %s (got %#08x)", name, got)
		} else if got != want {
			t.Errorf("%s: frozen bytes CRC-32C = %#08x, golden %#08x", name, got, want)
		}
	}
	const n = 1500
	for _, d := range []int{2, 4, 10} {
		items := goldenCorpus(n, d, int64(1000+d))
		for _, fill := range []int{0, 8} {
			substrates := []struct {
				name   string
				build  func() goldenIndex
				freeze func(goldenIndex) io.WriterTo
			}{
				{"sstree", func() goldenIndex { return hyperdom.NewSSTree(d, fill) },
					func(x goldenIndex) io.WriterTo { return x.(*hyperdom.SSTree).Freeze() }},
				{"mtree", func() goldenIndex { return hyperdom.NewMTree(d, fill) },
					func(x goldenIndex) io.WriterTo { return x.(*hyperdom.MTree).Freeze() }},
				{"rtree", func() goldenIndex { return hyperdom.NewRTree(d, fill) },
					func(x goldenIndex) io.WriterTo { return x.(*hyperdom.RTree).Freeze() }},
			}
			for _, s := range substrates {
				prefix := fmt.Sprintf("%s/d%d/fill%d/", s.name, d, fill)

				x := s.build()
				for _, it := range items {
					x.Insert(it)
				}
				check(t, prefix+"insert", crc(t, s.freeze(x)))

				// Delete two items in three — far below the minimum fill, so
				// leaves dissolve and their survivors are reinserted — then
				// put the deleted ones back.
				for _, it := range items {
					if it.ID%3 != 0 && !x.Delete(it) {
						t.Fatalf("%s: Delete(%d) found nothing", prefix, it.ID)
					}
				}
				check(t, prefix+"deleted", crc(t, s.freeze(x)))
				for _, it := range items {
					if it.ID%3 != 0 {
						x.Insert(it)
					}
				}
				if x.Len() != n {
					t.Fatalf("%s: Len = %d after reinsert, want %d", prefix, x.Len(), n)
				}
				check(t, prefix+"reinserted", crc(t, s.freeze(x)))
			}

			bulk := hyperdom.NewSSTree(d, fill)
			bulk.BulkLoad(items)
			check(t, fmt.Sprintf("sstree/d%d/fill%d/bulk", d, fill), crc(t, bulk.Freeze()))
		}
	}
}
