package packed

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"time"

	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
)

// header is the parsed, bounds-checked fixed header plus section table.
// Counts are widened to int64 so all downstream size arithmetic is
// overflow-free under the maxSnap* caps.
type header struct {
	kind      Kind
	substrate Substrate
	dim       int64
	nodes     int64
	children  int64
	items     int64
	root      int32
	rootRad   float64
	secs      []secEntry
}

type secEntry struct {
	id  uint32
	crc uint32
	off uint64
	ln  uint64
}

// parseHeader validates everything that can be validated before touching a
// single payload byte: magic, version, header CRC, field caps, and a
// section table whose entries are strictly ascending by id, 64-byte
// aligned, non-overlapping and inside the file. After it returns, every
// secs[i] byte range is safe to slice out of data.
func parseHeader(data []byte) (*header, error) {
	le := binary.LittleEndian
	if len(data) < fixedHdrLen {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(data), fixedHdrLen)
	}
	switch string(data[:8]) {
	case magicLE:
	case magicBE:
		return nil, fmt.Errorf("%w: big-endian snapshot; re-freeze and save on a little-endian host (v%d writes little-endian only)",
			ErrIncompatible, FormatVersion)
	default:
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadMagic, data[:8])
	}
	if v := le.Uint32(data[8:]); v != FormatVersion {
		return nil, fmt.Errorf("%w: file is format v%d, this build reads v%d — rebuild the snapshot with a matching hyperdom build (datagen -freeze or hyperdomd build-and-save)",
			ErrBadVersion, v, FormatVersion)
	}
	hdrLen := int64(le.Uint32(data[16:]))
	nsec := int64(le.Uint32(data[44:]))
	if hdrLen != fixedHdrLen+secEntryLen*nsec || hdrLen > int64(len(data)) {
		return nil, fmt.Errorf("%w: header length %d inconsistent with %d sections in a %d-byte file",
			ErrCorrupt, hdrLen, nsec, len(data))
	}
	// The stored CRC is defined over the header bytes with its own field
	// zeroed; fold the three spans instead of copying.
	crc := crc32.Update(0, castagnoli, data[:12])
	crc = crc32.Update(crc, castagnoli, []byte{0, 0, 0, 0})
	crc = crc32.Update(crc, castagnoli, data[16:hdrLen])
	if got := le.Uint32(data[12:]); got != crc {
		noteChecksumFailure()
		return nil, fmt.Errorf("%w: header CRC %08x, computed %08x", ErrChecksum, got, crc)
	}

	h := &header{
		dim:      int64(le.Uint32(data[20:])),
		nodes:    int64(le.Uint32(data[24:])),
		children: int64(le.Uint32(data[28:])),
		items:    int64(le.Uint32(data[32:])),
		root:     int32(le.Uint32(data[36:])),
		rootRad:  math.Float64frombits(le.Uint64(data[48:])),
	}
	h.kind = Kind(data[40])
	h.substrate = Substrate(data[41])
	if h.kind != KindSphere && h.kind != KindRect {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, data[40])
	}
	if int(h.substrate) >= NumSubstrates {
		return nil, fmt.Errorf("%w: unknown substrate %d", ErrCorrupt, data[41])
	}
	if tiers := data[42]; tiers != tiersBoth {
		return nil, fmt.Errorf("%w: quant tier mask %#x, this build serves snapshots carrying both tiers (%#x) — re-freeze with a matching build",
			ErrIncompatible, tiers, tiersBoth)
	}
	if flags := data[43]; flags != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x — written by a newer build; upgrade this reader or re-freeze", ErrIncompatible, flags)
	}
	if h.dim < 1 || h.dim > maxSnapDim {
		return nil, fmt.Errorf("%w: dimensionality %d outside [1, %d]", ErrCorrupt, h.dim, maxSnapDim)
	}
	if h.nodes > maxSnapCount || h.children > maxSnapCount || h.items > maxSnapCount {
		return nil, fmt.Errorf("%w: counts nodes=%d children=%d items=%d exceed the int32 id space",
			ErrCorrupt, h.nodes, h.children, h.items)
	}
	if h.root < -1 || int64(h.root) >= h.nodes {
		return nil, fmt.Errorf("%w: root %d of %d nodes", ErrCorrupt, h.root, h.nodes)
	}
	if h.root < 0 && (h.nodes != 0 || h.items != 0) {
		return nil, fmt.Errorf("%w: rootless snapshot with %d nodes, %d items", ErrCorrupt, h.nodes, h.items)
	}
	// The freeze-time conservatism margins must match this build's
	// compiled-in constants bit-for-bit: the coarse kernels subtract
	// exactly these margins, so a snapshot frozen with smaller ones could
	// make them prune items the exact path would keep.
	slackRel := math.Float64frombits(le.Uint64(data[56:]))
	pivotRel := math.Float64frombits(le.Uint64(data[64:]))
	if slackRel != slackRelParam || pivotRel != pivotRelParam {
		return nil, fmt.Errorf("%w: quant-slack margins slackRel=%g pivotRel=%g, this build requires slackRel=%g pivotRel=%g — re-freeze with a matching build",
			ErrIncompatible, slackRel, pivotRel, slackRelParam, pivotRelParam)
	}

	h.secs = make([]secEntry, nsec)
	prevEnd := uint64(align64(hdrLen))
	prevID := uint32(0)
	for i := range h.secs {
		e := data[fixedHdrLen+i*secEntryLen:]
		s := secEntry{
			id:  le.Uint32(e[0:]),
			crc: le.Uint32(e[4:]),
			off: le.Uint64(e[8:]),
			ln:  le.Uint64(e[16:]),
		}
		if s.id <= prevID {
			return nil, fmt.Errorf("%w: section ids not strictly ascending at entry %d (id %d)", ErrCorrupt, i, s.id)
		}
		if s.off%secAlign != 0 || s.off < prevEnd {
			return nil, fmt.Errorf("%w: section %d at offset %d (previous end %d)", ErrCorrupt, s.id, s.off, prevEnd)
		}
		if s.ln > uint64(len(data)) || s.off > uint64(len(data))-s.ln {
			return nil, fmt.Errorf("%w: section %d spans [%d, %d+%d) beyond the %d-byte file",
				ErrTruncated, s.id, s.off, s.off, s.ln, len(data))
		}
		prevEnd, prevID = s.off+s.ln, s.id
		h.secs[i] = s
	}
	return h, nil
}

// decodeTree turns snapshot bytes into a servable Tree. zeroCopy points
// the Tree's slices into data (mmap path; data must outlive the Tree);
// otherwise every block is copied out. verify additionally checks every
// section's CRC — always on for the copy paths, opt-in for mmap so
// opening does not force the whole file resident.
func decodeTree(data []byte, zeroCopy, verify bool) (*Tree, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	sections := make(map[uint32][]byte, len(h.secs))
	for _, e := range h.secs {
		b := data[e.off : e.off+e.ln]
		if verify {
			if got := crc32.Checksum(b, castagnoli); got != e.crc {
				noteChecksumFailure()
				return nil, fmt.Errorf("%w: section %d CRC %08x, computed %08x", ErrChecksum, e.id, e.crc, got)
			}
		}
		sections[e.id] = b
	}

	t := &Tree{
		kind:       h.kind,
		dim:        int(h.dim),
		root:       h.root,
		substrate:  h.substrate,
		rootRadius: h.rootRad,
	}
	q := &t.quant
	var itemIDs []int64
	for _, sp := range secSpecs(h.kind, h.dim, h.nodes, h.children, h.items, h.root) {
		b, present := sections[sp.id]
		if sp.n == 0 {
			if present {
				return nil, fmt.Errorf("%w: unexpected section %d", ErrCorrupt, sp.id)
			}
			continue
		}
		if !present {
			return nil, fmt.Errorf("%w: missing section %d (%d bytes expected)", ErrTruncated, sp.id, sp.n*sp.elem)
		}
		if int64(len(b)) != sp.n*sp.elem {
			return nil, fmt.Errorf("%w: section %d holds %d bytes, header implies %d", ErrCorrupt, sp.id, len(b), sp.n*sp.elem)
		}
		delete(sections, sp.id)
		switch sp.id {
		case secLeaf:
			for i, v := range b {
				if v > 1 {
					return nil, fmt.Errorf("%w: leaf flag %d at node %d", ErrCorrupt, v, i)
				}
			}
			t.leaf = decodeSlice[bool](b, zeroCopy)
		case secChildStart:
			t.childStart = decodeSlice[int32](b, zeroCopy)
		case secItemStart:
			t.itemStart = decodeSlice[int32](b, zeroCopy)
		case secChild:
			t.child = decodeSlice[int32](b, zeroCopy)
		case secCCenters:
			t.cCenters = decodeSlice[float64](b, zeroCopy)
		case secCRadii:
			t.cRadii = decodeSlice[float64](b, zeroCopy)
		case secCLo:
			t.cLo = decodeSlice[float64](b, zeroCopy)
		case secCHi:
			t.cHi = decodeSlice[float64](b, zeroCopy)
		case secItemIDs:
			itemIDs = decodeSlice[int64](b, zeroCopy)
		case secICenters:
			t.iCenters = decodeSlice[float64](b, zeroCopy)
		case secIRadii:
			t.iRadii = decodeSlice[float64](b, zeroCopy)
		case secRootCenter:
			t.rootCenter = decodeSlice[float64](b, zeroCopy)
		case secRootLo:
			t.rootLo = decodeSlice[float64](b, zeroCopy)
		case secRootHi:
			t.rootHi = decodeSlice[float64](b, zeroCopy)
		case secQICen32:
			q.iCen32 = decodeSlice[float32](b, zeroCopy)
		case secQICen8:
			q.iCen8 = decodeSlice[int8](b, zeroCopy)
		case secQIScale:
			q.iScale = decodeSlice[float64](b, zeroCopy)
		case secQIOffset:
			q.iOffset = decodeSlice[float64](b, zeroCopy)
		case secLeafPivot:
			q.leafPivot = decodeSlice[float64](b, zeroCopy)
		case secIPivotHi32:
			q.iPivotHi32 = decodeSlice[float32](b, zeroCopy)
		case secISR32:
			q.iSR32 = decodeSlice[float32](b, zeroCopy)
		case secISR8:
			q.iSR8 = decodeSlice[float32](b, zeroCopy)
		case secCBox:
			t.cBox = decodeSlice[float32](b, zeroCopy)
		}
	}
	if len(sections) > 0 {
		for id := range sections {
			return nil, fmt.Errorf("%w: unknown section id %d", ErrCorrupt, id)
		}
	}
	if err := t.validateStructure(h); err != nil {
		return nil, err
	}

	// Rebuild the []geom.Item view. The struct slice itself is the one
	// block that cannot live in the file (it holds Go slice headers), but
	// each Center points into iCenters — zero-copy on the mmap path — so
	// the per-item heap cost is the ~40-byte struct, not the coordinates.
	t.items = make([]geom.Item, h.items)
	dim := t.dim
	for i := range t.items {
		t.items[i] = geom.Item{
			Sphere: geom.Sphere{
				Center: t.iCenters[i*dim : (i+1)*dim : (i+1)*dim],
				Radius: t.iRadii[i],
			},
			ID: int(itemIDs[i]),
		}
	}
	return t, nil
}

// validateStructure checks the decoded arrays describe a well-formed
// forest before any traversal touches them: exact prefix-array shape, and
// the builder's bottom-up id invariant child[e] < parent — which makes
// cycles impossible (ids strictly decrease along any path) and bounds
// every child id in one comparison. It also reads every child box: the
// traversal prunes on them, so an inverted or NaN box would lose answers
// without a sign, and at 8·dim bytes per child entry the pass is cheap
// enough to run whether or not the section CRCs do.
func (t *Tree) validateStructure(h *header) error {
	for i := 0; i < len(t.cBox); i += 2 {
		if !(t.cBox[i] <= t.cBox[i+1]) {
			return fmt.Errorf("%w: child entry %d has box [%v, %v] on axis %d",
				ErrCorrupt, i/2/t.dim, t.cBox[i], t.cBox[i+1], i/2%t.dim)
		}
	}
	cs, is := t.childStart, t.itemStart
	if cs[0] != 0 || is[0] != 0 {
		return fmt.Errorf("%w: prefix arrays start at %d/%d", ErrCorrupt, cs[0], is[0])
	}
	if int64(cs[h.nodes]) != h.children || int64(is[h.nodes]) != h.items {
		return fmt.Errorf("%w: prefix arrays end at %d/%d, header says %d children, %d items",
			ErrCorrupt, cs[h.nodes], is[h.nodes], h.children, h.items)
	}
	for n := int64(0); n < h.nodes; n++ {
		if cs[n+1] < cs[n] || is[n+1] < is[n] {
			return fmt.Errorf("%w: prefix array decreases at node %d", ErrCorrupt, n)
		}
		if t.leaf[n] {
			if cs[n+1] != cs[n] {
				return fmt.Errorf("%w: leaf %d has children", ErrCorrupt, n)
			}
		} else if is[n+1] != is[n] {
			return fmt.Errorf("%w: internal node %d has items", ErrCorrupt, n)
		}
		for _, c := range t.child[cs[n]:cs[n+1]] {
			if c < 0 || int64(c) >= n {
				return fmt.Errorf("%w: node %d references child %d (bottom-up ids require 0 <= child < parent)",
					ErrCorrupt, n, c)
			}
		}
	}
	return nil
}

func noteChecksumFailure() {
	if obs.On() {
		obsSnapCRCFail.Inc()
	}
}

// Snapshot is a Tree loaded from a snapshot file together with the
// resources backing it. Mmap-backed snapshots alias the mapping: the Tree
// (and anything still holding its slices — including result Items, whose
// Centers point into the mapping) must not be used after Close. Copy-path
// snapshots own their memory and Close is a no-op.
type Snapshot struct {
	Tree *Tree

	mapped []byte
	size   int64
}

// Mapped reports whether the snapshot is mmap-backed (zero-copy).
func (s *Snapshot) Mapped() bool { return s.mapped != nil }

// SizeBytes returns the snapshot file's size.
func (s *Snapshot) SizeBytes() int64 { return s.size }

// Close releases the mapping, if any. Idempotent; not safe to race with
// searches over the snapshot's Tree.
func (s *Snapshot) Close() error {
	if s.mapped == nil {
		return nil
	}
	m := s.mapped
	s.mapped = nil
	return munmap(m)
}

type openConfig struct {
	verify bool
	noMmap bool
}

// OpenOption configures Open.
type OpenOption func(*openConfig)

// VerifyChecksums makes Open verify every section CRC, forcing the whole
// file resident. The copy paths (Load, OpenBytes) always verify.
func VerifyChecksums() OpenOption { return func(c *openConfig) { c.verify = true } }

// NoMmap forces the copying load path even where mmap is available.
func NoMmap() OpenOption { return func(c *openConfig) { c.noMmap = true } }

// Open loads a snapshot file, zero-copy via mmap where the platform
// supports it (falling back to a verified copy load otherwise). The
// header is CRC-checked and the structure fully validated either way;
// section payload CRCs are verified only with VerifyChecksums, so an open
// faults in the metadata pages and leaves the payload to the page cache.
func Open(path string, opts ...OpenOption) (*Snapshot, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	start := time.Now()
	if mmapSupported && !cfg.noMmap {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if st.Size() < fixedHdrLen {
			return nil, fmt.Errorf("%w: %s is %d bytes", ErrTruncated, path, st.Size())
		}
		m, err := mmapFile(f, st.Size())
		if err == nil {
			t, derr := decodeTree(m, true, cfg.verify)
			if derr != nil {
				munmap(m)
				return nil, fmt.Errorf("%s: %w", path, derr)
			}
			s := &Snapshot{Tree: t, mapped: m, size: st.Size()}
			noteOpen(s, start)
			return s, nil
		}
		// mmap itself failed (e.g. a filesystem without mapping support):
		// fall through to the copy path.
	}
	s, err := Load(path)
	if err != nil {
		return nil, err
	}
	noteOpen(s, start)
	return s, nil
}

// Load reads a snapshot file through the portable copy path: every block
// is copied to the heap and every CRC verified. The returned Snapshot
// owns its memory; Close is a no-op.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := OpenBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Snapshot{Tree: t, size: int64(len(data))}, nil
}

// OpenBytes decodes a snapshot from bytes through the copy path with full
// CRC verification — the entry point FuzzSnapshotOpen drives. The
// returned Tree does not alias data.
func OpenBytes(data []byte) (*Tree, error) {
	return decodeTree(data, false, true)
}

func noteOpen(s *Snapshot, start time.Time) {
	if !obs.On() {
		return
	}
	obsSnapOpened.Inc()
	if s.Mapped() {
		obsSnapMapped.Add(uint64(s.size))
	}
	histSnapLoad.RecordDuration(time.Since(start))
}
