package packed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hyperdom/internal/geom"
)

// randTree builds a three-level tree of the given kind through the
// Builder — the same entry point the substrates' Freeze methods use — so
// the snapshot tests exercise every section kind without importing a
// substrate (which would cycle back into packed).
func randTree(seed int64, kind Kind, dim, leaves, perLeaf int) *Tree {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(kind, dim)
	center := func() []float64 {
		c := make([]float64, dim)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		return c
	}
	id := 0
	var leafIDs []int32
	var bounds [][]float64
	var radii []float64
	var los, his [][]float64
	for l := 0; l < leaves; l++ {
		items := make([]geom.Item, perLeaf)
		for i := range items {
			items[i] = geom.Item{ID: id, Sphere: geom.Sphere{Center: center(), Radius: rng.Float64() * 2}}
			id++
		}
		leafIDs = append(leafIDs, b.Leaf(items))
		c := center()
		bounds = append(bounds, c)
		radii = append(radii, 30+rng.Float64())
		lo, hi := make([]float64, dim), make([]float64, dim)
		for j := range lo {
			lo[j] = c[j] - 30
			hi[j] = c[j] + 30
		}
		los, his = append(los, lo), append(his, hi)
	}
	// Group leaves under two internal nodes, then a root above them.
	half := len(leafIDs) / 2
	if kind == KindSphere {
		n0 := b.InternalSphere(leafIDs[:half], bounds[:half], radii[:half])
		n1 := b.InternalSphere(leafIDs[half:], bounds[half:], radii[half:])
		root := b.InternalSphere([]int32{n0, n1},
			[][]float64{center(), center()}, []float64{90, 90})
		return b.FinishSphere(root, center(), 200)
	}
	n0 := b.InternalRect(leafIDs[:half], los[:half], his[:half])
	n1 := b.InternalRect(leafIDs[half:], los[half:], his[half:])
	wide := func(off float64) ([]float64, []float64) {
		lo, hi := make([]float64, dim), make([]float64, dim)
		for j := range lo {
			lo[j], hi[j] = off-80, off+80
		}
		return lo, hi
	}
	l0, h0 := wide(100)
	l1, h1 := wide(100)
	root := b.InternalRect([]int32{n0, n1}, [][]float64{l0, l1}, [][]float64{h0, h1})
	lr, hr := wide(100)
	return b.FinishRect(root, lr, hr)
}

// eqSlices reports a test error for every field where the two trees
// differ. Float comparisons are exact: serialization must be bit-lossless.
func eqTree(t *testing.T, want, got *Tree) {
	t.Helper()
	eq := func(name string, a, b any) {
		t.Helper()
		switch x := a.(type) {
		case []float64:
			if !slices.Equal(x, b.([]float64)) {
				t.Errorf("%s differs", name)
			}
		case []float32:
			if !slices.Equal(x, b.([]float32)) {
				t.Errorf("%s differs", name)
			}
		case []int32:
			if !slices.Equal(x, b.([]int32)) {
				t.Errorf("%s differs", name)
			}
		case []int8:
			if !slices.Equal(x, b.([]int8)) {
				t.Errorf("%s differs", name)
			}
		case []uint8:
			if !slices.Equal(x, b.([]uint8)) {
				t.Errorf("%s differs", name)
			}
		case []bool:
			if !slices.Equal(x, b.([]bool)) {
				t.Errorf("%s differs", name)
			}
		default:
			t.Fatalf("eqTree: unhandled type %T", a)
		}
	}
	if want.kind != got.kind || want.dim != got.dim || want.root != got.root ||
		want.substrate != got.substrate || want.rootRadius != got.rootRadius {
		t.Errorf("scalars differ: kind %v/%v dim %d/%d root %d/%d substrate %v/%v rootRadius %v/%v",
			want.kind, got.kind, want.dim, got.dim, want.root, got.root,
			want.substrate, got.substrate, want.rootRadius, got.rootRadius)
	}
	eq("leaf", want.leaf, got.leaf)
	eq("childStart", want.childStart, got.childStart)
	eq("itemStart", want.itemStart, got.itemStart)
	eq("child", want.child, got.child)
	eq("cCenters", want.cCenters, got.cCenters)
	eq("cRadii", want.cRadii, got.cRadii)
	eq("cBox", want.cBox, got.cBox)
	eq("cLo", want.cLo, got.cLo)
	eq("cHi", want.cHi, got.cHi)
	eq("iCenters", want.iCenters, got.iCenters)
	eq("iRadii", want.iRadii, got.iRadii)
	eq("rootCenter", want.rootCenter, got.rootCenter)
	eq("rootLo", want.rootLo, got.rootLo)
	eq("rootHi", want.rootHi, got.rootHi)
	if len(want.items) != len(got.items) {
		t.Fatalf("items: %d vs %d", len(want.items), len(got.items))
	}
	for i := range want.items {
		w, g := want.items[i], got.items[i]
		if w.ID != g.ID || w.Sphere.Radius != g.Sphere.Radius || !slices.Equal(w.Sphere.Center, g.Sphere.Center) {
			t.Fatalf("item %d differs: %+v vs %+v", i, w, g)
		}
	}
	wq, gq := &want.quant, &got.quant
	eq("iCen32", wq.iCen32, gq.iCen32)
	eq("iCen8", wq.iCen8, gq.iCen8)
	eq("iScale", wq.iScale, gq.iScale)
	eq("iOffset", wq.iOffset, gq.iOffset)
	eq("leafPivot", wq.leafPivot, gq.leafPivot)
	eq("iPivotHi32", wq.iPivotHi32, gq.iPivotHi32)
	eq("iSR32", wq.iSR32, gq.iSR32)
	eq("iSR8", wq.iSR8, gq.iSR8)
}

func snapshotBytes(t *testing.T, pt *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := pt.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind Kind
	}{{"sphere", KindSphere}, {"rect", KindRect}} {
		t.Run(tc.name, func(t *testing.T) {
			pt := randTree(42, tc.kind, 4, 8, 16)
			pt.substrate = SubstrateSSTree
			got, err := OpenBytes(snapshotBytes(t, pt))
			if err != nil {
				t.Fatalf("OpenBytes: %v", err)
			}
			eqTree(t, pt, got)
		})
	}
}

// TestSnapshotFormatLayout pins the v3 table of contents (DESIGN.md §16):
// 23 section kinds, of which a sphere-bounded file carries 19 (the child
// boxes are its alone) and a rect-bounded one 19.
func TestSnapshotFormatLayout(t *testing.T) {
	if FormatVersion != 3 {
		t.Fatalf("FormatVersion = %d, want 3", FormatVersion)
	}
	if n := len(sections); n != 23 {
		t.Fatalf("sections lists %d sections, want 23", n)
	}
	for kind, want := range map[Kind]uint32{KindSphere: 19, KindRect: 19} {
		data := snapshotBytes(t, randTree(42, kind, 4, 8, 16))
		if got := binary.LittleEndian.Uint32(data[44:]); got != want {
			t.Errorf("kind %d file carries %d sections, want %d", kind, got, want)
		}
	}
}

func TestSnapshotRoundTripEmpty(t *testing.T) {
	pt := NewBuilder(KindSphere, 3).FinishEmpty()
	got, err := OpenBytes(snapshotBytes(t, pt))
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	if !got.Empty() || got.Dim() != 3 || got.Len() != 0 {
		t.Fatalf("empty=%v dim=%d len=%d", got.Empty(), got.Dim(), got.Len())
	}
}

func TestSnapshotSingleLeafRoundTrip(t *testing.T) {
	b := NewBuilder(KindSphere, 2)
	root := b.Leaf([]geom.Item{
		{ID: 9, Sphere: geom.Sphere{Center: []float64{1, 2}, Radius: 0.5}},
	})
	pt := b.FinishSphere(root, []float64{1, 2}, 0.5)
	got, err := OpenBytes(snapshotBytes(t, pt))
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	eqTree(t, pt, got)
}

// TestSnapshotSaveOpen exercises the durable path end to end: Save
// (atomic temp+rename), Open (mmap where supported) and Load (copy), each
// yielding a bit-identical tree, and Close releasing the mapping.
func TestSnapshotSaveOpen(t *testing.T) {
	pt := randTree(7, KindSphere, 4, 8, 16)
	pt.substrate = SubstrateMTree
	path := filepath.Join(t.TempDir(), "t.hds")
	if err := pt.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}

	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if mmapSupported && !s.Mapped() {
		t.Error("Open on a mmap-capable platform did not map")
	}
	eqTree(t, pt, s.Tree)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	for _, open := range []struct {
		name string
		fn   func() (*Snapshot, error)
	}{
		{"Load", func() (*Snapshot, error) { return Load(path) }},
		{"Open+Verify", func() (*Snapshot, error) { return Open(path, VerifyChecksums()) }},
		{"Open+NoMmap", func() (*Snapshot, error) { return Open(path, NoMmap()) }},
	} {
		s, err := open.fn()
		if err != nil {
			t.Fatalf("%s: %v", open.name, err)
		}
		eqTree(t, pt, s.Tree)
		s.Close()
	}
}

// TestSnapshotSaveAtomic locks in the crash-safety contract: Save over an
// existing file replaces it wholesale and leaves no temp litter.
func TestSnapshotSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.hds")
	first := randTree(1, KindSphere, 2, 4, 4)
	second := randTree(2, KindRect, 3, 6, 8)
	for _, pt := range []*Tree{first, second} {
		if err := pt.Save(path); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	eqTree(t, second, s.Tree)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "t.hds" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only t.hds", names)
	}
}

// rewriteCRCs recomputes every section CRC and the header CRC in place —
// the tool structural-corruption tests use to slip a mutated payload past
// the checksum layer and hit the validator behind it.
func rewriteCRCs(data []byte) {
	le := binary.LittleEndian
	hdrLen := int64(le.Uint32(data[16:]))
	nsec := int(le.Uint32(data[44:]))
	for i := 0; i < nsec; i++ {
		e := data[fixedHdrLen+i*secEntryLen:]
		off, ln := le.Uint64(e[8:]), le.Uint64(e[16:])
		le.PutUint32(e[4:], crc32.Checksum(data[off:off+ln], castagnoli))
	}
	le.PutUint32(data[12:], 0)
	le.PutUint32(data[12:], crc32.Checksum(data[:hdrLen], castagnoli))
}

// sectionRange returns the byte range of section id, for targeted
// corruption.
func sectionRange(t *testing.T, data []byte, id uint32) (off, ln uint64) {
	t.Helper()
	le := binary.LittleEndian
	nsec := int(le.Uint32(data[44:]))
	for i := 0; i < nsec; i++ {
		e := data[fixedHdrLen+i*secEntryLen:]
		if le.Uint32(e[0:]) == id {
			return le.Uint64(e[8:]), le.Uint64(e[16:])
		}
	}
	t.Fatalf("section %d not present", id)
	return 0, 0
}

// invertFirstBox swaps the lo and hi of the first child box's first axis.
func invertFirstBox(t *testing.T, data []byte) {
	t.Helper()
	le := binary.LittleEndian
	off, _ := sectionRange(t, data, secCBox)
	lo, hi := le.Uint32(data[off:]), le.Uint32(data[off+4:])
	if lo == hi {
		t.Fatal("first child box is degenerate; nothing to invert")
	}
	le.PutUint32(data[off:], hi)
	le.PutUint32(data[off+4:], lo)
}

// TestSnapshotCorruptInputs is the regression table of the corrupt-input
// hardening: every mutation must come back as the right typed error —
// never a panic, never an out-of-bounds slice, never a silently served
// wrong tree.
func TestSnapshotCorruptInputs(t *testing.T) {
	base := snapshotBytes(t, randTree(11, KindSphere, 3, 4, 8))
	le := binary.LittleEndian
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"short header", func(b []byte) []byte { return b[:40] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { copy(b, "NOTSNAP!"); return b }, ErrBadMagic},
		{"big-endian magic", func(b []byte) []byte { copy(b, magicBE); return b }, ErrIncompatible},
		{"future version", func(b []byte) []byte {
			le.PutUint32(b[8:], FormatVersion+1)
			rewriteCRCs(b)
			return b
		}, ErrBadVersion},
		{"previous version", func(b []byte) []byte {
			le.PutUint32(b[8:], FormatVersion-1)
			rewriteCRCs(b)
			return b
		}, ErrBadVersion},
		{"header bit flip", func(b []byte) []byte { b[25] ^= 0x40; return b }, ErrChecksum},
		{"payload bit flip", func(b []byte) []byte {
			off, ln := sectionRange(t, b, secISR8)
			b[off+ln-7] ^= 1
			return b
		}, ErrChecksum},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-100] }, ErrTruncated},
		{"unknown flags", func(b []byte) []byte {
			b[43] = 0x80
			rewriteCRCs(b)
			return b
		}, ErrIncompatible},
		{"tier mask missing i8", func(b []byte) []byte {
			b[42] = tiersF32
			rewriteCRCs(b)
			return b
		}, ErrIncompatible},
		{"quant margin mismatch", func(b []byte) []byte {
			le.PutUint64(b[56:], le.Uint64(b[56:])+1)
			rewriteCRCs(b)
			return b
		}, ErrIncompatible},
		{"zero dim", func(b []byte) []byte {
			le.PutUint32(b[20:], 0)
			rewriteCRCs(b)
			return b
		}, ErrCorrupt},
		{"root beyond nodes", func(b []byte) []byte {
			le.PutUint32(b[36:], le.Uint32(b[24:])+7)
			rewriteCRCs(b)
			return b
		}, ErrCorrupt},
		{"section offset past EOF", func(b []byte) []byte {
			le.PutUint64(b[fixedHdrLen+8:], uint64(len(b)+secAlign))
			rewriteCRCs(b)
			return b
		}, ErrTruncated},
		{"section misaligned", func(b []byte) []byte {
			le.PutUint64(b[fixedHdrLen+8:], le.Uint64(b[fixedHdrLen+8:])+4)
			rewriteCRCs(b)
			return b
		}, ErrCorrupt},
		{"duplicate section id", func(b []byte) []byte {
			copy(b[fixedHdrLen+secEntryLen:fixedHdrLen+2*secEntryLen], b[fixedHdrLen:fixedHdrLen+secEntryLen])
			rewriteCRCs(b)
			return b
		}, ErrCorrupt},
		{"leaf flag out of range", func(b []byte) []byte {
			off, _ := sectionRange(t, b, secLeaf)
			b[off] = 2
			rewriteCRCs(b)
			return b
		}, ErrCorrupt},
		{"child id above parent", func(b []byte) []byte {
			off, ln := sectionRange(t, b, secChild)
			le.PutUint32(b[off+ln-4:], le.Uint32(b[24:])+100)
			rewriteCRCs(b)
			return b
		}, ErrCorrupt},
		{"prefix array decreasing", func(b []byte) []byte {
			off, _ := sectionRange(t, b, secItemStart)
			le.PutUint32(b[off+4:], ^uint32(0)) // -1
			rewriteCRCs(b)
			return b
		}, ErrCorrupt},
		{"prefix array overshoots", func(b []byte) []byte {
			// The two internal nodes under the root end their children past
			// the child array and only the root comes back down: the walk
			// must not slice on the way there.
			off, ln := sectionRange(t, b, secChildStart)
			le.PutUint32(b[off+ln-12:], 1<<30)
			le.PutUint32(b[off+ln-8:], 1<<30)
			rewriteCRCs(b)
			return b
		}, ErrCorrupt},
		{"box inverted", func(b []byte) []byte {
			invertFirstBox(t, b)
			rewriteCRCs(b)
			return b
		}, ErrCorrupt},
		{"box NaN", func(b []byte) []byte {
			off, ln := sectionRange(t, b, secCBox)
			le.PutUint32(b[off+ln-4:], math.Float32bits(float32(math.NaN())))
			rewriteCRCs(b)
			return b
		}, ErrCorrupt},
		{"item count lies", func(b []byte) []byte {
			le.PutUint32(b[32:], le.Uint32(b[32:])+1)
			rewriteCRCs(b)
			return b
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(slices.Clone(base))
			_, err := OpenBytes(data)
			if err == nil {
				t.Fatal("corrupt snapshot decoded without error")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestSnapshotBadBoxWithoutVerify: the traversal prunes on the child boxes,
// so a damaged one must stop the open even on the mmap path that skips the
// section CRCs — with the CRCs left stale, as bit rot would leave them.
func TestSnapshotBadBoxWithoutVerify(t *testing.T) {
	data := snapshotBytes(t, randTree(11, KindSphere, 3, 4, 8))
	invertFirstBox(t, data)
	path := filepath.Join(t.TempDir(), "bad.hds")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open without verify: %v, want ErrCorrupt", err)
	}
	if _, err := Open(path, VerifyChecksums()); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Open with verify over stale CRCs: %v, want ErrChecksum", err)
	}
	rewriteCRCs(data)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, VerifyChecksums()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with verify over fresh CRCs: %v, want ErrCorrupt", err)
	}
}

// TestSnapshotErrorMessages spot-checks that the rejection messages say
// what to do about it, not just that bytes were bad.
func TestSnapshotErrorMessages(t *testing.T) {
	base := snapshotBytes(t, randTree(12, KindSphere, 2, 4, 4))
	le := binary.LittleEndian

	b := slices.Clone(base)
	le.PutUint32(b[8:], 99)
	rewriteCRCs(b)
	_, err := OpenBytes(b)
	if err == nil || !strings.Contains(err.Error(), "rebuild the snapshot") {
		t.Errorf("version mismatch error not actionable: %v", err)
	}

	b = slices.Clone(base)
	copy(b, magicBE)
	_, err = OpenBytes(b)
	if err == nil || !strings.Contains(err.Error(), "little-endian") {
		t.Errorf("endianness error not actionable: %v", err)
	}
}
