// Package packed provides the read-optimized "frozen" form of the SS-tree.
// A packed.Tree flattens the pointer-based index into structure-of-arrays
// form: for every node, the bounding spheres of its children (or the
// spheres of its leaf items) are stored in one contiguous []float64 block —
// all coordinates of entry 0..n-1 back-to-back — with radii and child
// offsets in parallel slices. The kNN traversal's mindist
// loop over a node then becomes a single streaming pass over sequential
// memory (vec.MinDistSphereBlock and friends) instead of a pointer chase
// through per-node heap objects.
//
// A frozen tree is an immutable value. The SS-tree's Freeze method builds a
// fresh one on every call and keeps nothing, so a snapshot never changes
// and does not follow later mutations of its source; a search walks one
// only when it is wrapped as such (knn.WrapPacked). See DESIGN.md §11. The
// M-tree and R-tree have no frozen form: they are pointer-walk baselines
// only.
//
// Bit-exactness: the block kernels preserve the scalar accumulation order
// (package vec) and the entry order preserves the child/item order of the
// source nodes, so every distance the packed traversal (package knn) reads
// is the pointer path's. Each child entry carries a second bound, the
// axis-aligned box of everything below it (box.go), and the packed walk
// prunes on the larger of the two: it visits a subset of the nodes and
// items the pointer path does, and under every criterion that subsumes
// MinMax its result sets — items and order — are identical.
package packed

import (
	"fmt"

	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
	"hyperdom/internal/vec"
)

// Kind is the bounding geometry of internal-node entries, stamped into the
// snapshot header. KindSphere is the only kind a tree is frozen with.
type Kind uint8

// KindSphere: children are bounded by hyperspheres (SS-tree centroids).
const KindSphere Kind = 0

// Freeze observability: how many snapshots were built and how much they
// hold.
var (
	obsFreezes = obs.New("packed.freezes")
	obsNodes   = obs.New("packed.nodes_frozen")
	obsItems   = obs.New("packed.items_frozen")
)

// Tree is the frozen SoA snapshot of one index. All fields are built once
// by a Builder and never mutated afterwards, so a Tree is safe for
// unsynchronised concurrent reads.
//
// Nodes are identified by dense int32 ids. Two parallel prefix arrays
// delimit each node's entries:
//
//   - internal node i owns child entries child[childStart[i]:childStart[i+1]],
//     whose bounds live at cCenters[e*dim:(e+1)*dim]+cRadii[e] and
//     cBox[e*2*dim:(e+1)*2*dim];
//   - leaf node i owns items[itemStart[i]:itemStart[i+1]], whose sphere
//     geometry is mirrored into iCenters/iRadii for the streaming pass.
type Tree struct {
	dim  int
	root int32 // -1 for an empty tree

	leaf       []bool
	childStart []int32 // len nodes+1
	itemStart  []int32 // len nodes+1

	child    []int32
	cCenters []float64 // len(child)*dim
	cRadii   []float64 // len(child)
	cBox     []float32 // len(child)*dim*2, [lo,hi] interleaved; see box.go

	items    []geom.Item
	iCenters []float64 // len(items)*dim
	iRadii   []float64 // len(items)

	rootCenter []float64 // root bound
	rootRadius float64

	// quant holds the narrow (float32 / int8) copies of every leaf item
	// sphere used by the coarse-filter pass (ISSUE 6); see quant.go.
	quant quantTiers
}

// Dim returns the dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Empty reports whether the snapshot holds no nodes.
func (t *Tree) Empty() bool { return t.root < 0 }

// Root returns the root node id. Only valid when !Empty().
func (t *Tree) Root() int32 { return t.root }

// Len returns the number of items in the snapshot.
func (t *Tree) Len() int { return len(t.items) }

// NumNodes returns the number of nodes in the snapshot.
func (t *Tree) NumNodes() int { return len(t.leaf) }

// IsLeaf reports whether node n is a leaf.
func (t *Tree) IsLeaf(n int32) bool { return t.leaf[n] }

// Children returns the child node ids of internal node n. The returned
// slice aliases the snapshot; callers must not modify it.
func (t *Tree) Children(n int32) []int32 {
	return t.child[t.childStart[n]:t.childStart[n+1]]
}

// LeafItems returns the items of leaf n. The returned slice aliases the
// snapshot; callers must not modify it.
func (t *Tree) LeafItems(n int32) []geom.Item {
	return t.items[t.itemStart[n]:t.itemStart[n+1]]
}

// rootMinDist returns the minimum distance between the query sphere and
// the root's bound — the same value the pointer path computes from the
// root cursor.
func (t *Tree) rootMinDist(q geom.Sphere) float64 {
	return geom.MinDist(geom.Sphere{Center: t.rootCenter, Radius: t.rootRadius}, q)
}

// RootOrder keys a nearest-first walk over several trees. It is rootMinDist
// while the root's bound is clear of the query sphere; when the bound
// touches it — MinDist 0, which is where the trees of one partitioned
// dataset tie — it is a negative number that grows with the distance from
// the query's center to the center of the bound. Sorted ascending, trees
// therefore come in root-MinDist order, the ones already touching the query
// first and nearest-centred first among themselves.
func (t *Tree) RootOrder(q geom.Sphere) float64 {
	if md := t.rootMinDist(q); md > 0 {
		return md
	}
	return -1 / (1 + vec.Dist2(t.rootCenter, q.Center))
}

// ChildMinDists streams one pass over internal node n's packed child
// bounds and writes into dst, which must have length len(Children(n)), a
// lower bound on the distance from the query sphere to anything below each
// child: the pointer path's geom.MinDist of the child's sphere, raised —
// for every child that bound alone would admit under dk, the caller's
// current k-th distance — to the MinDist of the child's box when that is
// larger. boxPrunes counts the children the sphere admitted and the box
// put beyond dk. One call of vec.ChildKeysBlock computes both bounds, on
// amd64 with AVX2 four children at a time; its keys are those of
// vec.MinDistSphereBlock then vec.RaiseToBoxBlock bit for bit, so the
// walk's order and Stats do not depend on the CPU.
func (t *Tree) ChildMinDists(n int32, q geom.Sphere, dk float64, dst []float64) (boxPrunes int) {
	cs, ce := t.childStart[n], t.childStart[n+1]
	lo, hi := cs*int32(t.dim), ce*int32(t.dim)
	return vec.ChildKeysBlock(dst, t.cCenters[lo:hi], t.cRadii[cs:ce], t.cBox[2*int(lo):2*int(hi)], q.Center, q.Radius, dk)
}

// ItemRadii returns the packed radii of leaf n's items, parallel to
// LeafItems. The slice aliases the snapshot.
func (t *Tree) ItemRadii(n int32) []float64 {
	return t.iRadii[t.itemStart[n]:t.itemStart[n+1]]
}

// Builder assembles a Tree bottom-up. The SS-tree's Freeze walks its
// pointer nodes post-order: children are added first, then the
// parent references their ids. Entry blocks are appended at node creation,
// so each node's block is contiguous by construction.
type Builder struct {
	t *Tree
}

// NewBuilder starts a snapshot of the given dimensionality. kind must be
// KindSphere.
func NewBuilder(kind Kind, dim int) *Builder {
	if kind != KindSphere {
		panic(fmt.Sprintf("packed: NewBuilder with kind %d: only sphere-bounded trees freeze", kind))
	}
	if dim <= 0 {
		panic(fmt.Sprintf("packed: NewBuilder with dimensionality %d", dim))
	}
	t := &Tree{dim: dim, root: -1}
	t.childStart = append(t.childStart, 0)
	t.itemStart = append(t.itemStart, 0)
	return &Builder{t: t}
}

func (b *Builder) newNode(leaf bool) int32 {
	id := int32(len(b.t.leaf))
	b.t.leaf = append(b.t.leaf, leaf)
	b.t.childStart = append(b.t.childStart, b.t.childStart[id])
	b.t.itemStart = append(b.t.itemStart, b.t.itemStart[id])
	return id
}

// Leaf adds a leaf node holding the given items (in order) and returns its
// id. Item structs are copied and their sphere geometry goes into the
// packed blocks; the sealed tree's items point into those blocks, not at
// the caller's coordinates.
func (b *Builder) Leaf(items []geom.Item) int32 {
	id := b.newNode(true)
	for _, it := range items {
		if it.Sphere.Dim() != b.t.dim {
			panic(fmt.Sprintf("packed: Leaf item of dimensionality %d in %d-dimensional tree",
				it.Sphere.Dim(), b.t.dim))
		}
		b.t.items = append(b.t.items, it)
		b.t.iCenters = append(b.t.iCenters, it.Sphere.Center...)
		b.t.iRadii = append(b.t.iRadii, it.Sphere.Radius)
	}
	b.t.itemStart[id+1] = int32(len(b.t.items))
	return id
}

// InternalSphere adds an internal node whose i-th child is node ids[i]
// bounded by the sphere (centers[i], radii[i]), preserving order, and
// returns its id. Bound geometry is copied.
func (b *Builder) InternalSphere(ids []int32, centers [][]float64, radii []float64) int32 {
	if len(ids) != len(centers) || len(ids) != len(radii) {
		panic("packed: InternalSphere with mismatched child slices")
	}
	id := b.newNode(false)
	for i, c := range ids {
		b.t.child = append(b.t.child, c)
		b.t.cCenters = append(b.t.cCenters, centers[i]...)
		b.t.cRadii = append(b.t.cRadii, radii[i])
	}
	b.t.childStart[id+1] = int32(len(b.t.child))
	return id
}

// FinishSphere seals the snapshot with root node id and its bounding
// sphere and returns the immutable Tree. The bound is copied.
func (b *Builder) FinishSphere(root int32, center []float64, radius float64) *Tree {
	b.t.rootCenter = append([]float64(nil), center...)
	b.t.rootRadius = radius
	return b.finish(root)
}

// FinishEmpty seals an empty snapshot (no nodes).
func (b *Builder) FinishEmpty() *Tree { return b.finish(-1) }

func (b *Builder) finish(root int32) *Tree {
	t := b.t
	b.t = nil // a Builder is single-use
	if root >= int32(len(t.leaf)) {
		panic(fmt.Sprintf("packed: Finish with root %d of %d nodes", root, len(t.leaf)))
	}
	t.root = root
	// Point every item's Center into iCenters, as the snapshot reader does:
	// the tree then holds one copy of each centre, keeps neither the
	// pointer tree it was frozen from nor the caller's coordinate slices alive,
	// and gives every item an address of its own.
	for i, dim := 0, t.dim; i < len(t.items); i++ {
		t.items[i].Sphere.Center = t.iCenters[i*dim : (i+1)*dim : (i+1)*dim]
	}
	t.buildQuant()
	t.buildBoxes()
	if obs.On() {
		obsFreezes.Inc()
		obsNodes.Add(uint64(len(t.leaf)))
		obsItems.Add(uint64(len(t.items)))
	}
	return t
}
