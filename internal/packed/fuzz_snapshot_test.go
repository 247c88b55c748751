package packed

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hyperdom/internal/geom"
)

// fuzzSeedSnapshot builds a small valid snapshot for the fuzz seed corpus.
func fuzzSeedSnapshot() []byte {
	b := NewBuilder(KindSphere, 2)
	l0 := b.Leaf([]geom.Item{
		{ID: 1, Sphere: geom.Sphere{Center: []float64{0, 0}, Radius: 0.5}},
		{ID: 2, Sphere: geom.Sphere{Center: []float64{1, 0}, Radius: 0.25}},
	})
	l1 := b.Leaf([]geom.Item{
		{ID: 3, Sphere: geom.Sphere{Center: []float64{4, 4}, Radius: 1}},
	})
	root := b.InternalSphere([]int32{l0, l1},
		[][]float64{{0.5, 0}, {4, 4}}, []float64{1.25, 1})
	var buf bytes.Buffer
	if _, err := b.FinishSphere(root, []float64{2, 2}, 4).WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotOpen is the corrupt-input hardening gate: no byte sequence
// may make the snapshot decoder panic, slice out of bounds, or fail with
// anything but the typed sentinel errors — and anything it does accept
// must be safely traversable. The R-tree snapshot an earlier build wrote
// (testdata/v3-rtree.hds, and the corpus entry valid-rect) seeds the
// rectangle sections the reader now refuses.
func FuzzSnapshotOpen(f *testing.F) {
	sphere := fuzzSeedSnapshot()
	rect, err := os.ReadFile(filepath.Join("testdata", "v3-rtree.hds"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sphere)
	f.Add(rect)
	f.Add([]byte{})
	f.Add([]byte(magicLE))
	f.Add(sphere[:len(sphere)/2])
	f.Add(sphere[:fixedHdrLen])
	flipped := bytes.Clone(sphere)
	flipped[24] ^= 0xff
	f.Add(flipped)
	payload := bytes.Clone(rect)
	payload[len(payload)-1] ^= 0x01
	f.Add(payload)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := OpenBytes(data)
		if err != nil {
			for _, sentinel := range []error{
				ErrBadMagic, ErrBadVersion, ErrTruncated,
				ErrChecksum, ErrCorrupt, ErrIncompatible,
			} {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		if tr.Empty() {
			return
		}
		// Whatever decoded must be safe to walk: visit every reachable
		// node, stream every accessor the traversals use.
		q := geom.Sphere{Center: make([]float64, tr.Dim()), Radius: 1}
		_ = tr.RootOrder(q)
		stack := []int32{tr.Root()}
		var dst []float64
		var sel []int32
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if tr.IsLeaf(n) {
				sel = append(sel[:0], make([]int32, len(tr.LeafItems(n)))...)
				for _, tier := range []Tier{TierNone, TierF32, TierI8} {
					m, _ := tr.LeafQuantSelect(tier, n, q, 1, sel)
					for _, i := range sel[:m] {
						tr.LeafDistAt(n, i, q.Center)
					}
				}
				continue
			}
			kids := tr.Children(n)
			dst = append(dst[:0], make([]float64, len(kids))...)
			tr.ChildMinDists(n, q, 1, dst)
			stack = append(stack, kids...)
		}
	})
}
