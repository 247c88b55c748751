package packed

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"hyperdom/internal/geom"
)

// parseHeader validates everything that can be validated before touching a
// single payload byte: magic, version, header CRC, field caps, and a
// section table whose entries are strictly ascending by id, 64-byte
// aligned, non-overlapping and inside the file. After it returns, every
// table entry's byte range is safe to slice out of data, and the counts in
// h keep all downstream size arithmetic inside int64 (the maxSnap* caps).
func parseHeader(data []byte) (h *header, table []secEntry, err error) {
	h = new(header)
	if len(data) < fixedHdrLen || binary.Read(bytes.NewReader(data), binary.LittleEndian, h) != nil {
		return nil, nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(data), fixedHdrLen)
	}
	switch string(h.Magic[:]) {
	case magicLE:
	case magicBE:
		return nil, nil, fmt.Errorf("%w: big-endian snapshot; re-freeze and save on a little-endian host (v%d writes little-endian only)",
			ErrIncompatible, FormatVersion)
	default:
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrBadMagic, h.Magic[:])
	}
	if h.Version != FormatVersion {
		return nil, nil, fmt.Errorf("%w: file is format v%d, this build reads v%d — rebuild the snapshot with a matching hyperdom build (datagen -freeze or hyperdomd build-and-save)",
			ErrBadVersion, h.Version, FormatVersion)
	}
	hdrLen := int64(h.HdrLen)
	if hdrLen != fixedHdrLen+secEntryLen*int64(h.NSec) || hdrLen > int64(len(data)) {
		return nil, nil, fmt.Errorf("%w: header length %d inconsistent with %d sections in a %d-byte file",
			ErrCorrupt, hdrLen, h.NSec, len(data))
	}
	// The stored CRC is defined over the header bytes with its own field
	// zeroed; fold the three spans instead of copying.
	crc := crc32.Update(0, castagnoli, data[:hdrCRCOff])
	crc = crc32.Update(crc, castagnoli, []byte{0, 0, 0, 0})
	crc = crc32.Update(crc, castagnoli, data[hdrCRCOff+4:hdrLen])
	if h.CRC != crc {
		obsSnapCRCFail.Inc()
		return nil, nil, fmt.Errorf("%w: header CRC %08x, computed %08x", ErrChecksum, h.CRC, crc)
	}

	if h.Kind != KindSphere || h.Substrate != hdrSSTree {
		found := fmt.Sprintf("substrate %d", h.Substrate)
		if int(h.Substrate) < len(hdrSubstrateNames) {
			found = hdrSubstrateNames[h.Substrate]
		}
		return nil, nil, fmt.Errorf("%w: %s snapshot (kind %d, substrate %d), this build serves only SS-tree snapshots (kind %d, substrate %d) — rebuild it",
			ErrIncompatible, found, h.Kind, h.Substrate, KindSphere, hdrSSTree)
	}
	if h.Tiers != tiersBoth {
		return nil, nil, fmt.Errorf("%w: quant tier mask %#x, this build serves snapshots carrying both tiers (%#x) — re-freeze with a matching build",
			ErrIncompatible, h.Tiers, tiersBoth)
	}
	if h.Flags != 0 {
		return nil, nil, fmt.Errorf("%w: unknown flags %#x — written by a newer build; upgrade this reader or re-freeze", ErrIncompatible, h.Flags)
	}
	if h.Dim < 1 || h.Dim > maxSnapDim {
		return nil, nil, fmt.Errorf("%w: dimensionality %d outside [1, %d]", ErrCorrupt, h.Dim, maxSnapDim)
	}
	if h.Nodes > maxSnapCount || h.Children > maxSnapCount || h.Items > maxSnapCount {
		return nil, nil, fmt.Errorf("%w: counts nodes=%d children=%d items=%d exceed the int32 id space",
			ErrCorrupt, h.Nodes, h.Children, h.Items)
	}
	if h.Root < -1 || int64(h.Root) >= int64(h.Nodes) {
		return nil, nil, fmt.Errorf("%w: root %d of %d nodes", ErrCorrupt, h.Root, h.Nodes)
	}
	if h.Root < 0 && (h.Nodes != 0 || h.Items != 0) {
		return nil, nil, fmt.Errorf("%w: rootless snapshot with %d nodes, %d items", ErrCorrupt, h.Nodes, h.Items)
	}
	// The freeze-time conservatism margins must match this build's
	// compiled-in constants bit-for-bit: the coarse kernels subtract
	// exactly these margins, so a snapshot frozen with smaller ones could
	// make them prune items the exact path would keep.
	if h.SlackRel != slackRelParam || h.PivotRel != pivotRelParam {
		return nil, nil, fmt.Errorf("%w: quant-slack margins slackRel=%g pivotRel=%g, this build requires slackRel=%g pivotRel=%g — re-freeze with a matching build",
			ErrIncompatible, h.SlackRel, h.PivotRel, slackRelParam, pivotRelParam)
	}

	table = make([]secEntry, h.NSec)
	if err := binary.Read(bytes.NewReader(data[fixedHdrLen:hdrLen]), binary.LittleEndian, table); err != nil {
		return nil, nil, fmt.Errorf("%w: section table: %v", ErrTruncated, err)
	}
	prevEnd := uint64(align64(hdrLen))
	prevID := uint32(0)
	for i, s := range table {
		if s.ID <= prevID {
			return nil, nil, fmt.Errorf("%w: section ids not strictly ascending at entry %d (id %d)", ErrCorrupt, i, s.ID)
		}
		if s.Off%secAlign != 0 || s.Off < prevEnd {
			return nil, nil, fmt.Errorf("%w: section %d at offset %d (previous end %d)", ErrCorrupt, s.ID, s.Off, prevEnd)
		}
		if s.Len > uint64(len(data)) || s.Off > uint64(len(data))-s.Len {
			return nil, nil, fmt.Errorf("%w: section %d spans [%d, %d+%d) beyond the %d-byte file",
				ErrTruncated, s.ID, s.Off, s.Off, s.Len, len(data))
		}
		prevEnd, prevID = s.Off+s.Len, s.ID
	}
	return h, table, nil
}

// decodeTree turns snapshot bytes into a servable Tree. zeroCopy points
// the Tree's slices into data (mmap path; data must outlive the Tree);
// otherwise every block is copied out. verify additionally checks every
// section's CRC — always on for the copy paths, opt-in for mmap so
// opening does not force the whole file resident.
func decodeTree(data []byte, zeroCopy, verify bool) (*Tree, error) {
	h, table, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	payloads := make(map[uint32][]byte, len(table))
	for _, e := range table {
		b := data[e.Off : e.Off+e.Len]
		if verify {
			if got := crc32.Checksum(b, castagnoli); got != e.CRC {
				obsSnapCRCFail.Inc()
				return nil, fmt.Errorf("%w: section %d CRC %08x, computed %08x", ErrChecksum, e.ID, e.CRC, got)
			}
		}
		payloads[e.ID] = b
	}

	t := &Tree{
		dim:        int(h.Dim),
		root:       h.Root,
		rootRadius: h.RootRadius,
	}
	for _, s := range sections {
		b, present := payloads[s.id]
		want := s.count(h) * s.elem
		if want == 0 {
			if present {
				return nil, fmt.Errorf("%w: unexpected section %d", ErrCorrupt, s.id)
			}
			continue
		}
		if !present {
			return nil, fmt.Errorf("%w: missing section %d (%d bytes expected)", ErrTruncated, s.id, want)
		}
		if int64(len(b)) != want {
			return nil, fmt.Errorf("%w: section %d holds %d bytes, header implies %d", ErrCorrupt, s.id, len(b), want)
		}
		delete(payloads, s.id)
		if s.check != nil {
			if err := s.check(b, t.dim); err != nil {
				return nil, err
			}
		}
		s.fill(t, b, zeroCopy)
	}
	for id := range payloads {
		return nil, fmt.Errorf("%w: unknown section id %d", ErrCorrupt, id)
	}
	if err := t.validateStructure(h); err != nil {
		return nil, err
	}

	// Each Center points into iCenters — zero-copy on the mmap path — so
	// the per-item heap cost is the ~40-byte struct, not the coordinates.
	dim := t.dim
	for i := range t.items {
		t.items[i].Sphere = geom.Sphere{
			Center: t.iCenters[i*dim : (i+1)*dim : (i+1)*dim],
			Radius: t.iRadii[i],
		}
	}
	return t, nil
}

// validateStructure checks the decoded arrays describe a well-formed
// forest before any traversal touches them: exact prefix-array shape, and
// the builder's bottom-up id invariant child[e] < parent — which makes
// cycles impossible (ids strictly decrease along any path) and bounds
// every child id in one comparison.
func (t *Tree) validateStructure(h *header) error {
	cs, is := t.childStart, t.itemStart
	nodes := int64(h.Nodes)
	if cs[0] != 0 || is[0] != 0 {
		return fmt.Errorf("%w: prefix arrays start at %d/%d", ErrCorrupt, cs[0], is[0])
	}
	if int64(cs[nodes]) != int64(h.Children) || int64(is[nodes]) != int64(h.Items) {
		return fmt.Errorf("%w: prefix arrays end at %d/%d, header says %d children, %d items",
			ErrCorrupt, cs[nodes], is[nodes], h.Children, h.Items)
	}
	for n := int64(0); n < nodes; n++ {
		if cs[n+1] < cs[n] || is[n+1] < is[n] {
			return fmt.Errorf("%w: prefix array decreases at node %d", ErrCorrupt, n)
		}
		// Checked here, not left to the decrease that must follow: the child
		// slice below is taken before a later node would report it.
		if int64(cs[n+1]) > int64(h.Children) {
			return fmt.Errorf("%w: node %d's children end at %d of %d", ErrCorrupt, n, cs[n+1], h.Children)
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
}

// OpenOption configures Open.
type OpenOption func(*openConfig)

// VerifyChecksums makes Open verify every section CRC, forcing the whole
// file resident. The copy paths (Load, OpenBytes) always verify.
func VerifyChecksums() OpenOption { return func(c *openConfig) { c.verify = true } }

// Open loads a snapshot file, zero-copy via mmap where the platform and
// the file system can map it and through Load where they cannot; there is
// no option to choose — call Load for the copy path. The header is
// CRC-checked and the structure fully validated either way; on the mmap
// path section payload CRCs are verified only with VerifyChecksums, so an
// open faults in the metadata pages and leaves the payload to the page
// cache.
func Open(path string, opts ...OpenOption) (*Snapshot, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	start := time.Now()
	if mmapSupported {
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
	if s.Mapped() {
		obsSnapMapped.Add(uint64(s.size))
	}
	histSnapLoad.RecordDuration(time.Since(start))
}
