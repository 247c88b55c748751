// Snapshot persistence (ISSUE 10): the on-disk form of a frozen Tree.
//
// A packed.Tree is already structure-of-arrays — plain numeric blocks plus
// int32 prefix offsets, no pointers — so the file format is little more
// than a checksummed table of contents over those blocks written verbatim
// in little-endian order:
//
//	[0, 72)  the fixed header (type header, field for field)
//	[72, ..) section table: one secEntry per section, ascending by id,
//	         offsets 64-byte aligned and ascending
//	[...  )  raw section payloads
//
// Both are encoded with encoding/binary; the header CRC covers the fixed
// header and the table. Every section's expected element count is derivable
// from the header alone (the sections table), so a reader never trusts a
// length field further than the arithmetic it can check — the foundation of
// the corrupt-input hardening FuzzSnapshotOpen locks in.
//
// Two load paths share one decoder. Load/OpenBytes copy every block out of
// the file bytes and verify every section CRC — the portable path. Open
// maps the file (syscall.Mmap behind a build tag) and, on little-endian
// hosts, points the Tree's slices straight into the mapping via
// unsafe.Slice: open+validate replaces rebuild, and the page cache — not
// the Go heap — holds cold shards. Structural validation (prefix
// monotonicity, child-id acyclicity, exact section lengths) always runs;
// per-section CRCs are opt-in on the mmap path (VerifyChecksums) so a
// multi-GB shard is not forced resident just to open it.
//
// The header stamps the freeze-time quant-slack parameters (slackRel,
// pivotRel). The coarse-filter kernels' conservatism proof fixes these
// constants at build time (vec/quant.go); a loader compiled with different
// margins must reject the file rather than serve bounds its kernels cannot
// honour, so a mismatch is ErrIncompatible, not a warning.
package packed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
)

// FormatVersion is the snapshot format this build writes and reads. v2
// dropped the sections no traversal read (the child-bound coarse tier and
// the per-item quantized radii/slacks already folded into iSR32/iSR8); v3
// added the child boxes of a sphere-bounded tree (secCBox, box.go), which
// the traversal prunes on and a reader must therefore not do without. An
// older file is refused with ErrBadVersion and rebuilt by its owner.
const FormatVersion = 3

const (
	magicLE = "HDSNAPLE"
	magicBE = "HDSNAPBE" // never written; recognised for an actionable error

	fixedHdrLen = 72
	secEntryLen = 24
	secAlign    = 64

	// tiersBoth: both narrow leaf tiers (f32 | i8) are present. Snapshots
	// always carry both — buildQuant constructs them unconditionally.
	tiersF32  = 1
	tiersI8   = 2
	tiersBoth = tiersF32 | tiersI8

	// Freeze-time conservatism margins stamped into the header: the
	// relative slack inflation of slackMargin and the relative pivot
	// margin of the fused leaf kernels (vec/quant.go). A reader whose
	// compiled-in margins differ must reject the snapshot.
	slackRelParam = 1e-9
	pivotRelParam = 1e-12

	// Validation caps: int32 node/entry ids bound everything by 2^31, and
	// the dimensionality cap keeps count arithmetic far from int64
	// overflow (2^31 entries × 2^16 dim × 8 bytes < 2^62).
	maxSnapDim   = 1 << 16
	maxSnapCount = 1<<31 - 2
)

// Typed load errors. Every load failure wraps exactly one of these, so
// callers can errors.Is-dispatch (e.g. rebuild on ErrIncompatible, alert
// on ErrChecksum) without parsing messages.
var (
	ErrBadMagic     = errors.New("packed: not a hyperdom snapshot")
	ErrBadVersion   = errors.New("packed: unsupported snapshot version")
	ErrTruncated    = errors.New("packed: truncated snapshot")
	ErrChecksum     = errors.New("packed: snapshot checksum mismatch")
	ErrCorrupt      = errors.New("packed: corrupt snapshot")
	ErrIncompatible = errors.New("packed: incompatible snapshot")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot load/store observability (ISSUE 10): exported on /metrics as
// hyperdom_snapshot_*. The files opened are load_latency's count.
var (
	obsSnapWritten = obs.New("snapshot.files_written")
	obsSnapMapped  = obs.New("snapshot.bytes_mapped")
	obsSnapCRCFail = obs.New("snapshot.checksum_failures")
	histSnapLoad   = obs.GetOrNewHistogram("snapshot.load_latency", "")
)

// header is the fixed 72-byte prefix of a snapshot file. encoding/binary
// writes and reads it little-endian, field after field with no padding, so
// the declaration order below is the byte layout.
type header struct {
	Magic      [8]byte // magicLE; the trailing LE doubles as the byte-order mark
	Version    uint32
	CRC        uint32 // CRC-32C over [0, HdrLen) with this field zeroed
	HdrLen     uint32 // fixed header + section table, the CRC-covered prefix
	Dim        uint32
	Nodes      uint32
	Children   uint32
	Items      uint32
	Root       int32 // -1: empty tree
	Kind       Kind  // KindSphere
	Substrate  uint8 // hdrSSTree
	Tiers      uint8
	Flags      uint8 // reserved, zero
	NSec       uint32
	RootRadius float64
	SlackRel   float64
	PivotRel   float64
}

// hdrCRCOff is the byte offset of header.CRC, the one field the checksum
// over the header has to step around.
const hdrCRCOff = 12

// hdrSSTree is the substrate byte of every snapshot this build writes and
// the only one it reads. Earlier builds also froze M-trees (2) and R-trees
// (3, with kind 1), and left trees they could not name at 0; the reader
// refuses those as ErrIncompatible, so whoever owns the file rebuilds it.
const hdrSSTree = 1

// hdrSubstrateNames spells the substrate bytes earlier builds wrote, for the
// refusal message.
var hdrSubstrateNames = [...]string{"unstamped", "SS-tree", "M-tree", "R-tree"}

// secEntry is one row of the file's section table.
type secEntry struct {
	ID, CRC  uint32
	Off, Len uint64
}

// Section ids, in both file order and ascending numeric order (the table
// is required to be strictly ascending). Which ids appear in a given file
// depends on emptiness. Ids 7, 8, 13 and 14 held the child and root
// rectangles of an R-tree snapshot: they are reserved, never written, and
// a file that carries one is refused.
const (
	secLeaf uint32 = iota + 1
	secChildStart
	secItemStart
	secChild
	secCCenters
	secCRadii
	_ // 7: child rectangle lower corners
	_ // 8: child rectangle upper corners
	secItemIDs
	secICenters
	secIRadii
	secRootCenter
	_ // 13: root rectangle lower corner
	_ // 14: root rectangle upper corner
	secQICen32
	secQICen8
	secQIScale
	secQIOffset
	secLeafPivot
	secIPivotHi32
	secISR32
	secISR8
	secCBox
)

// section is everything the format knows about one section. The element
// count is recomputed from the header, never read from the file, so a valid
// writer cannot emit a file its own reader would reject and a corrupted
// length can never make the reader slice out of bounds.
type section struct {
	id    uint32
	elem  int64                 // element width in bytes
	count func(h *header) int64 // elements the header implies; 0 = the section must be absent
	// bytes returns the column as little-endian bytes (leBytes) without
	// writing to t: searches run during a save.
	bytes func(t *Tree) []byte
	// fill decodes the column from b into t. With zeroCopy the Tree's slice
	// may alias b, which must then outlive it.
	fill func(t *Tree, b []byte, zeroCopy bool)
	// check, when set, reads the raw bytes before fill: the contents no
	// later validation pass would catch.
	check func(b []byte, dim int) error
}

// sec is the section over one plain numeric column of the Tree.
func sec[T word](id uint32, count func(*header) int64, field func(*Tree) *[]T) section {
	var z T
	return section{
		id: id, elem: int64(unsafe.Sizeof(z)), count: count,
		bytes: func(t *Tree) []byte { return leBytes(*field(t)) },
		fill:  func(t *Tree, b []byte, zeroCopy bool) { *field(t) = decodeSlice[T](b, zeroCopy) },
	}
}

func (s section) checked(check func(b []byte, dim int) error) section {
	s.check = check
	return s
}

func perNode(h *header) int64    { return int64(h.Nodes) }
func perNodeEnd(h *header) int64 { return int64(h.Nodes) + 1 }
func perChild(h *header) int64   { return int64(h.Children) }
func perItem(h *header) int64    { return int64(h.Items) }

// perRoot: an empty tree has no root bound.
func perRoot(h *header) int64 {
	if h.Root < 0 {
		return 0
	}
	return 1
}

// coords turns a count of entries into mul·dim coordinates per entry.
func coords(mul int64, n func(*header) int64) func(*header) int64 {
	return func(h *header) int64 { return n(h) * mul * int64(h.Dim) }
}

// sections is the snapshot format's table of contents, ascending by id:
// what WriteTo emits and what decodeTree expects, checks and fills.
var sections = []section{
	sec(secLeaf, perNode, func(t *Tree) *[]bool { return &t.leaf }).checked(checkLeafFlags),
	sec(secChildStart, perNodeEnd, func(t *Tree) *[]int32 { return &t.childStart }),
	sec(secItemStart, perNodeEnd, func(t *Tree) *[]int32 { return &t.itemStart }),
	sec(secChild, perChild, func(t *Tree) *[]int32 { return &t.child }),
	sec(secCCenters, coords(1, perChild), func(t *Tree) *[]float64 { return &t.cCenters }),
	sec(secCRadii, perChild, func(t *Tree) *[]float64 { return &t.cRadii }),
	{
		// The item IDs live in []geom.Item, which holds Go slice headers and
		// so cannot be a file column itself; decodeTree points each item's
		// sphere into iCenters/iRadii once those are in.
		id: secItemIDs, elem: 8, count: perItem,
		bytes: func(t *Tree) []byte {
			ids := make([]int64, len(t.items))
			for i := range t.items {
				ids[i] = int64(t.items[i].ID)
			}
			return leBytes(ids)
		},
		fill: func(t *Tree, b []byte, _ bool) {
			t.items = make([]geom.Item, len(b)/8)
			for i, id := range decodeSlice[int64](b, true) {
				t.items[i].ID = int(id)
			}
		},
	},
	sec(secICenters, coords(1, perItem), func(t *Tree) *[]float64 { return &t.iCenters }),
	sec(secIRadii, perItem, func(t *Tree) *[]float64 { return &t.iRadii }),
	sec(secRootCenter, coords(1, perRoot), func(t *Tree) *[]float64 { return &t.rootCenter }),
	sec(secQICen32, coords(1, perItem), func(t *Tree) *[]float32 { return &t.quant.iCen32 }),
	sec(secQICen8, coords(1, perItem), func(t *Tree) *[]int8 { return &t.quant.iCen8 }),
	sec(secQIScale, perNode, func(t *Tree) *[]float64 { return &t.quant.iScale }),
	sec(secQIOffset, perNode, func(t *Tree) *[]float64 { return &t.quant.iOffset }),
	sec(secLeafPivot, coords(1, perNode), func(t *Tree) *[]float64 { return &t.quant.leafPivot }),
	sec(secIPivotHi32, perItem, func(t *Tree) *[]float32 { return &t.quant.iPivotHi32 }),
	sec(secISR32, perItem, func(t *Tree) *[]float32 { return &t.quant.iSR32 }),
	sec(secISR8, perItem, func(t *Tree) *[]float32 { return &t.quant.iSR8 }),
	sec(secCBox, coords(2, perChild), func(t *Tree) *[]float32 { return &t.cBox }).checked(checkBoxes),
}

// checkLeafFlags: []bool is one 0/1 byte per element in Go's ABI, and any
// other byte must be refused before the section is cast back.
func checkLeafFlags(b []byte, _ int) error {
	for i, v := range b {
		if v > 1 {
			return fmt.Errorf("%w: leaf flag %d at node %d", ErrCorrupt, v, i)
		}
	}
	return nil
}

// checkBoxes reads every child box: the traversal prunes on them, so an
// inverted or NaN box would lose answers without a sign, and at 8·dim bytes
// per child entry the pass is cheap enough to run whether or not the
// section CRCs do.
func checkBoxes(b []byte, dim int) error {
	le := binary.LittleEndian
	for i := 0; i < len(b); i += 8 {
		lo, hi := math.Float32frombits(le.Uint32(b[i:])), math.Float32frombits(le.Uint32(b[i+4:]))
		if !(lo <= hi) {
			return fmt.Errorf("%w: child entry %d has box [%v, %v] on axis %d",
				ErrCorrupt, i/8/dim, lo, hi, i/8%dim)
		}
	}
	return nil
}

// hostLE reports whether this process runs little-endian. The format is
// little-endian on disk regardless; on big-endian hosts every block is
// byte-swap-copied and the zero-copy fast path is simply unavailable.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// word is any fixed-width element a section can hold. bool rides along
// because []bool is one 0/1 byte per element in Go's ABI.
type word interface {
	~int8 | ~uint8 | ~bool | ~int32 | ~float32 | ~int64 | ~float64
}

// rawBytes returns the in-memory bytes of s without copying.
func rawBytes[T word](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// swapCopy copies src to dst reversing the bytes of every w-byte element.
func swapCopy(dst, src []byte, w int) {
	for i := 0; i < len(src); i += w {
		for j := 0; j < w; j++ {
			dst[i+j] = src[i+w-1-j]
		}
	}
}

// leBytes returns s as little-endian bytes: an alias of the backing array
// on little-endian hosts, an element-wise swapped copy otherwise.
func leBytes[T word](s []T) []byte {
	b := rawBytes(s)
	if hostLE || len(b) == len(s) {
		return b
	}
	out := make([]byte, len(b))
	swapCopy(out, b, len(b)/len(s))
	return out
}

// decodeSlice interprets little-endian bytes b as []T. With zeroCopy, a
// little-endian host and natural alignment the result aliases b (this is
// the mmap fast path — b must outlive the slice); otherwise the elements
// are copied out, byte-swapped on big-endian hosts.
func decodeSlice[T word](b []byte, zeroCopy bool) []T {
	var z T
	w := int(unsafe.Sizeof(z))
	n := len(b) / w
	if n == 0 {
		return nil
	}
	if zeroCopy && hostLE && uintptr(unsafe.Pointer(&b[0]))%uintptr(w) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	if hostLE {
		copy(rawBytes(out), b)
	} else {
		swapCopy(rawBytes(out), b, w)
	}
	return out
}

func align64(n int64) int64 { return (n + secAlign - 1) &^ (secAlign - 1) }

// WriteTo serializes the snapshot in format v3 and reports the bytes
// written. It implements io.WriterTo; durability (atomic replace, fsync)
// is Save's job — WriteTo only streams bytes.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	h := header{
		Magic:      [8]byte([]byte(magicLE)),
		Version:    FormatVersion,
		Dim:        uint32(t.dim),
		Nodes:      uint32(len(t.leaf)),
		Children:   uint32(len(t.child)),
		Items:      uint32(len(t.items)),
		Root:       t.root,
		Kind:       KindSphere,
		Substrate:  hdrSSTree,
		Tiers:      tiersBoth,
		RootRadius: t.rootRadius,
		SlackRel:   slackRelParam,
		PivotRel:   pivotRelParam,
	}
	var table []secEntry
	blocks := [][]byte{nil} // the header, once the table is known, then each payload
	for _, s := range sections {
		data := s.bytes(t)
		if want := s.count(&h) * s.elem; int64(len(data)) != want {
			panic(fmt.Sprintf("packed: section %d holds %d bytes, format expects %d", s.id, len(data), want))
		}
		if len(data) > 0 {
			table = append(table, secEntry{ID: s.id, CRC: crc32.Checksum(data, castagnoli), Len: uint64(len(data))})
			blocks = append(blocks, data)
		}
	}
	h.NSec = uint32(len(table))
	h.HdrLen = fixedHdrLen + secEntryLen*h.NSec
	off := align64(int64(h.HdrLen))
	for i := range table {
		table[i].Off = uint64(off)
		off = align64(off + int64(table[i].Len))
	}
	var hdr bytes.Buffer
	if err := binary.Write(&hdr, binary.LittleEndian, &h); err != nil {
		return 0, err
	}
	if err := binary.Write(&hdr, binary.LittleEndian, table); err != nil {
		return 0, err
	}
	// The CRC field is still zero here, which is exactly the byte state
	// the checksum is defined over.
	blocks[0] = hdr.Bytes()
	binary.LittleEndian.PutUint32(blocks[0][hdrCRCOff:], crc32.Checksum(blocks[0], castagnoli))

	var n int64
	var pad [secAlign]byte
	for _, b := range blocks {
		m, err := w.Write(b)
		n += int64(m)
		if rem := len(b) % secAlign; err == nil && rem != 0 {
			m, err = w.Write(pad[:secAlign-rem])
			n += int64(m)
		}
		if err != nil {
			return n, err
		}
	}
	obsSnapWritten.Inc()
	return n, nil
}

// Save writes the snapshot to path with ReplaceFile's guarantees, so a
// reader can Open concurrently with a writer replacing the file.
func (t *Tree) Save(path string) error { return ReplaceFile(path, t) }

// ReplaceFile makes path hold exactly what src writes, atomically and
// durably: the bytes go to a temp file in the same directory, the file is
// fsynced, renamed over path, and the directory fsynced — a crash leaves
// either the old file or the new one, never a torn hybrid. Every step's
// error is returned; on failure the temp file is removed.
func ReplaceFile(path string, src io.WriterTo) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = src.WriteTo(f)
	if err == nil {
		// CreateTemp opens 0600; these files are shippable artifacts, so
		// widen to the usual rw-r--r-- (cut down by the process umask).
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
