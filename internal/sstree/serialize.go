package sstree

import (
	"encoding/gob"
	"fmt"
	"io"

	"hyperdom/internal/tree"
)

// The on-wire snapshot types. Kept separate from the in-memory node so the
// encoding is an explicit, versioned contract rather than an accident of
// the implementation.

type treeSnapshot struct {
	Version int
	Dim     int
	MinFill int
	MaxFill int
	Size    int
	Root    *nodeSnapshot
}

type nodeSnapshot struct {
	Leaf     bool
	Centroid []float64
	Radius   float64
	Count    int
	Children []*nodeSnapshot
	Items    []Item
}

const snapshotVersion = 1

// encodeSnapshot writes a raw snapshot; split out so tests can produce
// malformed streams.
func encodeSnapshot(w io.Writer, snap treeSnapshot) error {
	return gob.NewEncoder(w).Encode(snap)
}

// WriteTo serialises the tree with encoding/gob. It implements
// io.WriterTo; the returned byte count is 0 because gob does not expose
// one (callers needing sizes should wrap w with a counter).
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	snap := treeSnapshot{Version: snapshotVersion, Dim: t.Dim(), Size: t.Len()}
	snap.MinFill, snap.MaxFill = t.Fill()
	if root, ok := t.Root(); ok {
		snap.Root = snapshotNode(root)
	}
	if err := encodeSnapshot(w, snap); err != nil {
		return 0, fmt.Errorf("sstree: encoding tree: %w", err)
	}
	return 0, nil
}

// ReadFrom deserialises a tree previously written with WriteTo and
// validates its structural invariants before returning it.
func ReadFrom(r io.Reader) (*Tree, error) {
	var snap treeSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("sstree: decoding tree: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("sstree: unsupported snapshot version %d", snap.Version)
	}
	if snap.Dim <= 0 || snap.MaxFill < 4 || snap.MinFill < 2 || snap.Size < 0 {
		return nil, fmt.Errorf("sstree: corrupt snapshot header (dim=%d, fill=%d/%d, size=%d)",
			snap.Dim, snap.MinFill, snap.MaxFill, snap.Size)
	}
	t := New(snap.Dim, tree.WithMaxFill(snap.MaxFill))
	if minFill, _ := t.Fill(); snap.MinFill != minFill {
		return nil, fmt.Errorf("sstree: corrupt snapshot header (min fill %d under max fill %d)",
			snap.MinFill, snap.MaxFill)
	}
	tree.Install(&t.Tree, restoreNode(snap.Root, snap.Dim), snap.Size)
	// A tree bulk-loaded by an earlier build, whose BulkLoad did not cut to
	// the minimum fill, may legitimately sit below it, so only the
	// structural (loose) invariants gate deserialisation.
	if msg := t.CheckInvariantsLoose(); msg != "" {
		return nil, fmt.Errorf("sstree: snapshot fails invariants: %s", msg)
	}
	return t, nil
}

func snapshotNode(n tree.Cursor) *nodeSnapshot {
	s := &nodeSnapshot{
		Leaf:     n.IsLeaf(),
		Centroid: n.Sphere().Center,
		Radius:   n.Sphere().Radius,
		Count:    n.Count(),
		Items:    n.Items(),
	}
	for i := 0; i < n.NumChildren(); i++ {
		s.Children = append(s.Children, snapshotNode(n.Child(i)))
	}
	return s
}

func restoreNode(s *nodeSnapshot, dim int) *tree.Node {
	if s == nil {
		return nil
	}
	n := &tree.Node{
		Leaf:   s.Leaf,
		Center: s.Centroid,
		Radius: s.Radius,
		Count:  s.Count,
		Items:  s.Items,
	}
	if len(n.Center) != dim {
		// Let CheckInvariants produce the error; normalise so it can run.
		n.Center = make([]float64, dim)
	}
	for _, c := range s.Children {
		n.Children = append(n.Children, restoreNode(c, dim))
	}
	return n
}

var _ io.WriterTo = (*Tree)(nil)
