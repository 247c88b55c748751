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

// TestFrozenBytesGolden pins the CRC-32C of the frozen snapshot the SS-tree
// produces for a fixed insert/delete sequence, twice over. goldenV2 was
// recorded before the SS-/M-/R-tree copies were folded into one skeleton;
// the fold's invariant is that none of them moves, i.e. the SS-tree keeps
// its exact arithmetic, tie-breaks and entry order. Format
// v3 added one section beside the others and touched none of them, so those
// values are still checked, unedited, against each file rewritten as v2
// (asFormatV2). golden is the v3 file as written, child boxes included,
// recorded when the section was added (ISSUE 24).
// The twelve "bulk" entries of both maps were re-recorded when BulkLoad
// became tree.Load, the bulk loader shared with shard.Build; the insert,
// deleted and reinserted ones did not move.
func TestFrozenBytesGolden(t *testing.T) {
	goldenV2 := map[string]uint32{
		"sstree/d2/fill0/insert":      0xd7a30c95,
		"sstree/d2/fill0/deleted":     0xf92a2c58,
		"sstree/d2/fill0/reinserted":  0x64b8d299,
		"sstree/d2/fill0/bulk":        0x5fec43c7,
		"sstree/d2/fill8/insert":      0x68ac8735,
		"sstree/d2/fill8/deleted":     0xc22b8496,
		"sstree/d2/fill8/reinserted":  0xa05cca36,
		"sstree/d2/fill8/bulk":        0xfa785cdc,
		"sstree/d4/fill0/insert":      0x807aa41f,
		"sstree/d4/fill0/deleted":     0xfa4ed868,
		"sstree/d4/fill0/reinserted":  0x638e5ac5,
		"sstree/d4/fill0/bulk":        0x9ead6e75,
		"sstree/d4/fill8/insert":      0x16c9aa7b,
		"sstree/d4/fill8/deleted":     0x64cf4ffd,
		"sstree/d4/fill8/reinserted":  0xea156e09,
		"sstree/d4/fill8/bulk":        0xf138803d,
		"sstree/d10/fill0/insert":     0xcb1dd3df,
		"sstree/d10/fill0/deleted":    0x86642ab4,
		"sstree/d10/fill0/reinserted": 0x07c06f8b,
		"sstree/d10/fill0/bulk":       0x2f1cb0a1,
		"sstree/d10/fill8/insert":     0x0ec76a04,
		"sstree/d10/fill8/deleted":    0x0f773df8,
		"sstree/d10/fill8/reinserted": 0xf3d5a240,
		"sstree/d10/fill8/bulk":       0x84f17527,
	}
	golden := map[string]uint32{
		"sstree/d2/fill0/insert":      0x24c6ba40,
		"sstree/d2/fill0/deleted":     0xe3177857,
		"sstree/d2/fill0/reinserted":  0xc9de16bf,
		"sstree/d2/fill0/bulk":        0x5835d861,
		"sstree/d2/fill8/insert":      0xcbb6ad00,
		"sstree/d2/fill8/deleted":     0x814fcb1b,
		"sstree/d2/fill8/reinserted":  0x3b9174f0,
		"sstree/d2/fill8/bulk":        0xbe29d9fa,
		"sstree/d4/fill0/insert":      0xe0cb2620,
		"sstree/d4/fill0/deleted":     0xe2d1ffbc,
		"sstree/d4/fill0/reinserted":  0x311626be,
		"sstree/d4/fill0/bulk":        0x846d25b1,
		"sstree/d4/fill8/insert":      0x86ce1279,
		"sstree/d4/fill8/deleted":     0x6fa344a4,
		"sstree/d4/fill8/reinserted":  0x36e467c0,
		"sstree/d4/fill8/bulk":        0xae62173f,
		"sstree/d10/fill0/insert":     0x5bc1a43d,
		"sstree/d10/fill0/deleted":    0xebd5fcd6,
		"sstree/d10/fill0/reinserted": 0x420bc486,
		"sstree/d10/fill0/bulk":       0xa874fe38,
		"sstree/d10/fill8/insert":     0xcf3f173e,
		"sstree/d10/fill8/deleted":    0xfb78023e,
		"sstree/d10/fill8/reinserted": 0x3c3a7fde,
		"sstree/d10/fill8/bulk":       0xf24cfb2f,
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
			prefix := fmt.Sprintf("sstree/d%d/fill%d/", d, fill)

			x := hyperdom.NewSSTree(d, fill)
			for _, it := range items {
				x.Insert(it)
			}
			check(t, prefix+"insert", x.Freeze())

			// Delete two items in three — far below the minimum fill, so
			// leaves dissolve and their survivors are reinserted — then put
			// the deleted ones back.
			for _, it := range items {
				if it.ID%3 != 0 && !x.Delete(it) {
					t.Fatalf("%s: Delete(%d) found nothing", prefix, it.ID)
				}
			}
			check(t, prefix+"deleted", x.Freeze())
			for _, it := range items {
				if it.ID%3 != 0 {
					x.Insert(it)
				}
			}
			if x.Len() != n {
				t.Fatalf("%s: Len = %d after reinsert, want %d", prefix, x.Len(), n)
			}
			check(t, prefix+"reinserted", x.Freeze())

			bulk := hyperdom.NewSSTree(d, fill)
			bulk.BulkLoad(items)
			check(t, fmt.Sprintf("sstree/d%d/fill%d/bulk", d, fill), bulk.Freeze())
		}
	}
}
