package tree

import "hyperdom/internal/packed"

// Freeze builds — or returns the cached — packed read-optimized snapshot of
// an SS-tree: every node's child spheres flattened into contiguous SoA
// blocks that the kNN traversal streams over instead of chasing node
// pointers. Searches through package knn's wrappers pick the snapshot up
// automatically. The packed form is the SS-tree's alone: Freeze panics on a
// tree of any other substrate. A function, so that it is not promoted into
// the substrates' method sets; sstree.Tree.Freeze calls it.
//
// The snapshot is immutable and safe for concurrent readers. Mutating the
// tree afterwards (Insert, Delete, a bulk load) auto-thaws: the cached
// snapshot is dropped, Frozen reports false again, and searches fall back
// to the pointer path until the next Freeze. Callers holding the returned
// *packed.Tree directly must discard it after mutating the source.
func Freeze(t *Tree) *packed.Tree {
	if s := t.pol.Substrate(); s != SSTree {
		panic(s.String() + ": Freeze: only an SS-tree has a frozen form")
	}
	if t.frozen != nil {
		return t.frozen
	}
	b := packed.NewBuilder(packed.KindSphere, t.dim)
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
		centers := make([][]float64, len(n.Children))
		radii := make([]float64, len(n.Children))
		for i, c := range n.Children {
			ids[i] = build(c)
			centers[i], radii[i] = c.Center, c.Radius
		}
		return b.InternalSphere(ids, centers, radii)
	}
	t.frozen = b.FinishSphere(build(t.root), t.root.Center, t.root.Radius)
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
