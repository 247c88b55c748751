// Package tree is the height-balanced tree skeleton the three index
// substrates share: node and tree types, Insert with its validation, root
// split, the recursive descent, Delete with
// condense-and-reinsert, the bulk loader Load and the balanced Cut it shares
// with the shard partition, the read-only cursor, RangeSearch, Visit and
// CheckInvariants. Everything the literature says
// differs between an SS-tree, an M-tree and an R-tree — which subtree takes
// a new item, how an overflowing node is split, and how a bound follows its
// entries — is a Policy, implemented by packages sstree, mtree and rtree;
// the skeleton never looks inside a heuristic, and a policy never walks the
// tree.
//
// Bounds come in two forms, fixed per tree by its policy: a sphere
// (Node.Center, Node.Radius) for the SS-tree's centroid spheres and the
// M-tree's pivot spheres, a rectangle (Node.Rect) for the R-tree's MBRs. The
// operations that only read a bound — MinDist to a query, the delete
// descent's "may this subtree hold that item", the containment invariant —
// depend on the form alone and live in bound.go, once per form rather than
// once per policy.
package tree

import (
	"fmt"
	"slices"

	"hyperdom/internal/geom"
)

// Item is one indexed hypersphere together with its caller-assigned ID.
type Item = geom.Item

// DefaultMaxFill is the default node capacity.
const DefaultMaxFill = 24

// Node is one tree node. Policies read and write nodes; every other
// package sees them through Cursor.
type Node struct {
	Leaf     bool
	Count    int       // spheres in this subtree
	Center   []float64 // sphere bound: centroid (SS-tree) or pivot (M-tree)
	Radius   float64   // sphere bound: covering radius
	Children []*Node
	Items    []Item
	Rect     geom.Rect // rectangle bound (R-tree)
}

// Centers appends the centers of a sphere-bounded node's entries — item
// centers on a leaf, child centroids or pivots otherwise — to dst.
func (n *Node) Centers(dst [][]float64) [][]float64 {
	dst = slices.Grow(dst, len(n.Items)+len(n.Children))
	for _, it := range n.Items {
		dst = append(dst, it.Sphere.Center)
	}
	for _, c := range n.Children {
		dst = append(dst, c.Center)
	}
	return dst
}

// Pick returns a fresh node of n's level holding n's entries at idxs, in
// that order, with no bound or count yet — one side of an index-list split.
func (n *Node) Pick(idxs []int) *Node {
	nn := &Node{Leaf: n.Leaf}
	for _, i := range idxs {
		if n.Leaf {
			nn.Items = append(nn.Items, n.Items[i])
		} else {
			nn.Children = append(nn.Children, n.Children[i])
		}
	}
	return nn
}

// Substrate names a policy: the prefix of its tree's panic messages.
type Substrate uint8

const (
	SSTree Substrate = iota
	MTree
	RTree
)

var substrateNames = [...]string{SSTree: "sstree", MTree: "mtree", RTree: "rtree"}

func (s Substrate) String() string { return substrateNames[s] }

// Policy is what differs between the substrates. A node handed to a policy
// has its entries (Items on a leaf, Children otherwise) in place; a fresh
// node has no bound yet, and Grow and Refit allocate it on first use.
type Policy interface {
	// Substrate names the policy.
	Substrate() Substrate
	// Choose returns the index of the child of internal node n that takes it.
	Choose(n *Node, it Item) int
	// Split divides overflowing node n into two nodes of at least minFill
	// entries each, bounds and counts set. It may reuse n as one of them.
	Split(n *Node, minFill int) (*Node, *Node)
	// Refit recomputes n's bound and count from its entries.
	Refit(n *Node)
	// Grow brings n's bound and count up to date after its subtree took it
	// without n splitting. A policy whose bound cannot be grown in place
	// (the SS-tree's centroid moves) refits.
	Grow(n *Node, it Item)
}

// Tree is a height-balanced tree over d-dimensional hyperspheres whose
// heuristics are its policy's. The zero value is not usable; construct with
// New. A Tree is not safe for concurrent mutation; concurrent read-only use
// is safe.
type Tree struct {
	pol     Policy
	dim     int
	minFill int
	maxFill int
	root    *Node
	size    int
}

// Option configures a Tree.
type Option func(*Tree)

// WithMaxFill sets the node capacity (and the minimum fill to capacity/3,
// at least 2). m ≤ 0 selects DefaultMaxFill; other capacities below 4 are
// raised to 4.
func WithMaxFill(m int) Option {
	if m <= 0 {
		m = DefaultMaxFill
	}
	return func(t *Tree) {
		t.maxFill = max(m, 4)
		t.minFill = max(t.maxFill/3, 2)
	}
}

// New returns an empty tree for dim-dimensional spheres under pol.
func New(pol Policy, dim int, opts ...Option) *Tree {
	if dim <= 0 {
		panic(fmt.Sprintf("%v: New with dimensionality %d", pol.Substrate(), dim))
	}
	t := &Tree{pol: pol, dim: dim}
	WithMaxFill(0)(t)
	for _, o := range opts {
		o(t)
	}
	return t
}

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of indexed spheres.
func (t *Tree) Len() int { return t.size }

// Substrate names the tree's policy.
func (t *Tree) Substrate() Substrate { return t.pol.Substrate() }

// Height returns the height of the tree (0 for an empty tree, 1 for a
// single leaf).
func (t *Tree) Height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if n.Leaf {
			break
		}
		n = n.Children[0]
	}
	return h
}

// CheckItem returns an error unless the item's sphere is well-formed and
// dim-dimensional: the one definition of what a tree accepts, for callers
// that must reject outside input before Insert panics on it.
func CheckItem(dim int, it Item) error {
	if it.Sphere.Dim() != dim {
		return fmt.Errorf("%d-dimensional sphere, index is %d-dimensional", it.Sphere.Dim(), dim)
	}
	return it.Sphere.Validate()
}

// Insert adds the item to the tree. It panics unless the item's sphere is
// well-formed and matches the tree's dimensionality.
func (t *Tree) Insert(it Item) {
	if err := CheckItem(t.dim, it); err != nil {
		panic(fmt.Sprintf("%v: Insert: %v", t.pol.Substrate(), err))
	}
	t.place(it)
	t.size++
}

// place puts it into the tree, growing the tree by one level on a root
// split. It leaves the size alone: Insert and Delete's reinsertion own it.
func (t *Tree) place(it Item) {
	if t.root == nil {
		t.root = &Node{Leaf: true}
	}
	left, right := t.insert(t.root, it)
	if right != nil {
		t.root = &Node{Children: []*Node{left, right}}
		t.pol.Refit(t.root)
	}
}

// insert descends, inserts, brings bounds up to date on the way out, and
// returns (n, nil) normally or the two halves on overflow.
func (t *Tree) insert(n *Node, it Item) (*Node, *Node) {
	if n.Leaf {
		n.Items = append(n.Items, it)
	} else {
		best := t.pol.Choose(n, it)
		left, right := t.insert(n.Children[best], it)
		n.Children[best] = left
		if right != nil {
			n.Children = append(n.Children, right)
		}
	}
	if len(n.Items)+len(n.Children) > t.maxFill {
		return t.pol.Split(n, t.minFill)
	}
	t.pol.Grow(n, it)
	return n, nil
}

// Install makes root, built outside Insert by a bulk load and holding size
// items, the content of t. The nodes must already carry the bounds and
// counts the policy's Refit would give them. A function, so that it is not
// promoted into the substrates' method sets.
func Install(t *Tree, root *Node, size int) {
	t.root, t.size = root, size
}
