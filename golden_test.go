package hyperdom_test

import (
	"bytes"
	"encoding/binary"
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

// asFormatV2 rewrites a format-v3 snapshot as the v2 writer would have
// written the same tree: the child-box section (id 23, the only thing v3
// added) dropped from the table of contents, the version stamped 2, offsets
// and the header CRC recomputed, every other byte copied. The layout is the
// one documented in internal/packed/snapshot.go: a 72-byte fixed header, 24
// bytes per section entry {id, crc, off, len}, everything 64-byte aligned.
func asFormatV2(t *testing.T, v3 []byte) []byte {
	t.Helper()
	const fixed, entry, boxSection = 72, 24, 23
	le := binary.LittleEndian
	align := func(n int) int { return (n + 63) &^ 63 }
	if v := le.Uint32(v3[8:]); v != 3 {
		t.Fatalf("snapshot is format v%d, want v3", v)
	}
	var kept [][]byte // table entries, in order
	for i := 0; i < int(le.Uint32(v3[44:])); i++ {
		if e := v3[fixed+i*entry:][:entry]; le.Uint32(e) != boxSection {
			kept = append(kept, e)
		}
	}
	hdrLen := fixed + entry*len(kept)
	out := make([]byte, align(hdrLen))
	copy(out, v3[:fixed])
	le.PutUint32(out[8:], 2)
	le.PutUint32(out[12:], 0)
	le.PutUint32(out[16:], uint32(hdrLen))
	le.PutUint32(out[44:], uint32(len(kept)))
	for i, e := range kept {
		off, ln := le.Uint64(e[8:]), le.Uint64(e[16:])
		copy(out[fixed+i*entry:], e)
		le.PutUint64(out[fixed+i*entry+8:], uint64(len(out)))
		out = append(out, v3[off:off+ln]...)
		out = append(out, make([]byte, align(len(out))-len(out))...)
	}
	le.PutUint32(out[12:], crc32.Checksum(out[:hdrLen], crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// TestFrozenBytesGolden pins the CRC-32C of the frozen snapshot every
// substrate produces for a fixed insert/delete sequence, twice over.
// goldenV2 was recorded before the SS-/M-/R-tree copies were folded into one
// skeleton; the fold's invariant is that none of them moves, i.e. every
// substrate keeps its exact arithmetic, tie-breaks and entry order. Format
// v3 added one section beside the others and touched none of them, so those
// values are still checked, unedited, against each file rewritten as v2
// (asFormatV2). golden is the v3 file as written, child boxes included,
// recorded when the section was added (ISSUE 24).
func TestFrozenBytesGolden(t *testing.T) {
	goldenV2 := map[string]uint32{
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
	golden := map[string]uint32{
		"sstree/d2/fill0/insert":      0x24c6ba40,
		"sstree/d2/fill0/deleted":     0xe3177857,
		"sstree/d2/fill0/reinserted":  0xc9de16bf,
		"mtree/d2/fill0/insert":       0xfac79762,
		"mtree/d2/fill0/deleted":      0xba4f46c8,
		"mtree/d2/fill0/reinserted":   0xf4bf9309,
		"rtree/d2/fill0/insert":       0x377ff63f,
		"rtree/d2/fill0/deleted":      0x753b2adb,
		"rtree/d2/fill0/reinserted":   0xc0e5cbfd,
		"sstree/d2/fill0/bulk":        0x53ed1a0e,
		"sstree/d2/fill8/insert":      0xcbb6ad00,
		"sstree/d2/fill8/deleted":     0x814fcb1b,
		"sstree/d2/fill8/reinserted":  0x3b9174f0,
		"mtree/d2/fill8/insert":       0x4198bef6,
		"mtree/d2/fill8/deleted":      0x452b950e,
		"mtree/d2/fill8/reinserted":   0x4d1b16a1,
		"rtree/d2/fill8/insert":       0x3854897d,
		"rtree/d2/fill8/deleted":      0x3ddad4be,
		"rtree/d2/fill8/reinserted":   0x5dff8a38,
		"sstree/d2/fill8/bulk":        0x04ef1403,
		"sstree/d4/fill0/insert":      0xe0cb2620,
		"sstree/d4/fill0/deleted":     0xe2d1ffbc,
		"sstree/d4/fill0/reinserted":  0x311626be,
		"mtree/d4/fill0/insert":       0x1bcd04ef,
		"mtree/d4/fill0/deleted":      0x564ddfd7,
		"mtree/d4/fill0/reinserted":   0x2f036b96,
		"rtree/d4/fill0/insert":       0xbd5079a5,
		"rtree/d4/fill0/deleted":      0x565c96e0,
		"rtree/d4/fill0/reinserted":   0xf1b3b9ae,
		"sstree/d4/fill0/bulk":        0xeb020d62,
		"sstree/d4/fill8/insert":      0x86ce1279,
		"sstree/d4/fill8/deleted":     0x6fa344a4,
		"sstree/d4/fill8/reinserted":  0x36e467c0,
		"mtree/d4/fill8/insert":       0x8c75e8e9,
		"mtree/d4/fill8/deleted":      0x6d50f9a1,
		"mtree/d4/fill8/reinserted":   0xbdcac0b3,
		"rtree/d4/fill8/insert":       0x97adca3f,
		"rtree/d4/fill8/deleted":      0xabf4535b,
		"rtree/d4/fill8/reinserted":   0x6977a105,
		"sstree/d4/fill8/bulk":        0xb9c798ed,
		"sstree/d10/fill0/insert":     0x5bc1a43d,
		"sstree/d10/fill0/deleted":    0xebd5fcd6,
		"sstree/d10/fill0/reinserted": 0x420bc486,
		"mtree/d10/fill0/insert":      0x2e8e8290,
		"mtree/d10/fill0/deleted":     0x8f8f2b26,
		"mtree/d10/fill0/reinserted":  0xadc0168c,
		"rtree/d10/fill0/insert":      0x4fb0d6d3,
		"rtree/d10/fill0/deleted":     0x0c9de2ad,
		"rtree/d10/fill0/reinserted":  0x06d6f654,
		"sstree/d10/fill0/bulk":       0x6dc0c5e2,
		"sstree/d10/fill8/insert":     0xcf3f173e,
		"sstree/d10/fill8/deleted":    0xfb78023e,
		"sstree/d10/fill8/reinserted": 0x3c3a7fde,
		"mtree/d10/fill8/insert":      0x13c2331d,
		"mtree/d10/fill8/deleted":     0x132404c4,
		"mtree/d10/fill8/reinserted":  0x4593c3ab,
		"rtree/d10/fill8/insert":      0x8de7f10f,
		"rtree/d10/fill8/deleted":     0x8093a16d,
		"rtree/d10/fill8/reinserted":  0x7f4384cc,
		"sstree/d10/fill8/bulk":       0x25d0aedf,
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	check := func(t *testing.T, name string, wt io.WriterTo) {
		t.Helper()
		var buf bytes.Buffer
		if _, err := wt.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			format string
			golden map[string]uint32
			bytes  []byte
		}{{"v3", golden, buf.Bytes()}, {"v2", goldenV2, asFormatV2(t, buf.Bytes())}} {
			got := crc32.Checksum(f.bytes, castagnoli)
			if want, ok := f.golden[name]; !ok {
				t.Errorf("no %s golden value for %s (got %#08x)", f.format, name, got)
			} else if got != want {
				t.Errorf("%s: frozen bytes as %s CRC-32C = %#08x, golden %#08x", name, f.format, got, want)
			}
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
				check(t, prefix+"insert", s.freeze(x))

				// Delete two items in three — far below the minimum fill, so
				// leaves dissolve and their survivors are reinserted — then
				// put the deleted ones back.
				for _, it := range items {
					if it.ID%3 != 0 && !x.Delete(it) {
						t.Fatalf("%s: Delete(%d) found nothing", prefix, it.ID)
					}
				}
				check(t, prefix+"deleted", s.freeze(x))
				for _, it := range items {
					if it.ID%3 != 0 {
						x.Insert(it)
					}
				}
				if x.Len() != n {
					t.Fatalf("%s: Len = %d after reinsert, want %d", prefix, x.Len(), n)
				}
				check(t, prefix+"reinserted", s.freeze(x))
			}

			bulk := hyperdom.NewSSTree(d, fill)
			bulk.BulkLoad(items)
			check(t, fmt.Sprintf("sstree/d%d/fill%d/bulk", d, fill), bulk.Freeze())
		}
	}
}
