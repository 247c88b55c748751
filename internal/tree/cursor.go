package tree

import (
	"reflect"

	"hyperdom/internal/geom"
)

// Cursor is a read-only view of a tree node, used by search algorithms
// (package knn) and by tests.
type Cursor struct {
	n *Node
}

// Root returns a cursor to the root node; ok is false for an empty tree.
func (t *Tree) Root() (Cursor, bool) {
	return Cursor{t.root}, t.root != nil
}

// IsLeaf reports whether the node is a leaf.
func (c Cursor) IsLeaf() bool { return c.n.Leaf }

// Count returns the number of spheres under the node.
func (c Cursor) Count() int { return c.n.Count }

// Sphere returns the bounding sphere of a sphere-bounded node (SS-tree,
// M-tree). It shares the node's center slice; callers must not modify it.
func (c Cursor) Sphere() geom.Sphere { return c.n.sphere() }

// Rect returns the bounding rectangle of a rectangle-bounded node
// (R-tree); callers must not modify it.
func (c Cursor) Rect() geom.Rect { return c.n.Rect }

// MinDist returns a lower bound on the distance from any item under the
// node to q: 0 when they can intersect, never more than the true minimum.
func (c Cursor) MinDist(q geom.Sphere) float64 { return c.n.minDist(q) }

// NumChildren returns the number of children. Only valid on internal nodes.
func (c Cursor) NumChildren() int { return len(c.n.Children) }

// Child returns a cursor to the i-th child without allocating. Only valid
// on internal nodes.
func (c Cursor) Child(i int) Cursor { return Cursor{c.n.Children[i]} }

// Children returns cursors to the node's children in a fresh slice. Only
// valid on internal nodes.
func (c Cursor) Children() []Cursor {
	out := make([]Cursor, len(c.n.Children))
	for i := range out {
		out[i] = c.Child(i)
	}
	return out
}

// Items returns the node's items. Only valid on leaves. The returned slice
// is the node's own; callers must not modify it.
func (c Cursor) Items() []Item { return c.n.Items }

// DebugID returns an opaque identifier for the underlying node — stable
// across visits for the tree's lifetime and distinct between live nodes —
// for execution traces and prune audits. It carries no meaning beyond
// identity.
func (c Cursor) DebugID() uint64 { return uint64(reflect.ValueOf(c.n).Pointer()) }

// RangeSearch returns all items whose spheres intersect the query sphere q
// (MinDist(item, q) == 0), in unspecified order.
func (t *Tree) RangeSearch(q geom.Sphere) []Item {
	if q.Dim() != t.dim {
		panic(t.pol.Substrate().String() + ": RangeSearch with mismatched dimensionality")
	}
	var out []Item
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.minDist(q) > n.slack() {
			return
		}
		for _, it := range n.Items {
			if geom.Overlap(it.Sphere, q) {
				out = append(out, it)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return out
}

// Visit calls fn for every indexed item in unspecified order; returning
// false from fn stops the walk.
func (t *Tree) Visit(fn func(Item) bool) {
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		for _, it := range n.Items {
			if !fn(it) {
				return false
			}
		}
		for _, c := range n.Children {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	if t.root != nil {
		walk(t.root)
	}
}
