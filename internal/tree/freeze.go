package tree

import "hyperdom/internal/packed"

// Freeze builds — or returns the cached — packed read-optimized snapshot
// of the tree (ISSUE 5): every node's child bounds flattened into
// contiguous SoA blocks (centers and radii for sphere bounds, lo/hi for
// rectangles) that the kNN traversal streams over instead of chasing node
// pointers. Searches through package knn's wrappers pick the snapshot up
// automatically.
//
// The snapshot is immutable and safe for concurrent readers. Mutating the
// tree afterwards (Insert, Delete, a bulk load) auto-thaws: the cached
// snapshot is dropped, Frozen reports false again, and searches fall back
// to the pointer path until the next Freeze. Callers holding the returned
// *packed.Tree directly must discard it after mutating the source.
func (t *Tree) Freeze() *packed.Tree {
	if t.frozen != nil {
		return t.frozen
	}
	rect := t.pol.Kind() == packed.KindRect
	b := packed.NewBuilder(t.pol.Kind(), t.dim)
	b.SetSubstrate(t.pol.Substrate())
	if t.root == nil {
		t.frozen = b.FinishEmpty()
		return t.frozen
	}
	var build func(n *Node) int32
	build = func(n *Node) int32 {
		if n.Leaf {
			return b.Leaf(n.Items)
		}
		ids := make([]int32, len(n.Children))
		for i, c := range n.Children {
			ids[i] = build(c)
		}
		a := make([][]float64, len(ids)) // centers, or lower corners
		if rect {
			hi := make([][]float64, len(ids))
			for i, c := range n.Children {
				a[i], hi[i] = c.Rect.Lo, c.Rect.Hi
			}
			return b.InternalRect(ids, a, hi)
		}
		radii := make([]float64, len(ids))
		for i, c := range n.Children {
			a[i], radii[i] = c.Center, c.Radius
		}
		return b.InternalSphere(ids, a, radii)
	}
	root := build(t.root)
	if rect {
		t.frozen = b.FinishRect(root, t.root.Rect.Lo, t.root.Rect.Hi)
	} else {
		t.frozen = b.FinishSphere(root, t.root.Center, t.root.Radius)
	}
	return t.frozen
}

// Frozen returns the cached packed snapshot; ok is false when the tree was
// never frozen or has been mutated (auto-thawed) since the last Freeze.
func (t *Tree) Frozen() (*packed.Tree, bool) { return t.frozen, t.frozen != nil }

// thaw drops the cached snapshot. Every mutating operation calls it first,
// which is the auto-thaw half of the freeze/thaw contract (DESIGN.md §11).
func (t *Tree) thaw() {
	if t.frozen != nil {
		t.frozen = nil
		packed.NoteThaw()
	}
}
