// Package mtree implements an M-tree (Ciaccia, Patella & Zezula, VLDB
// 1997): a height-balanced metric access method whose routing entries are
// pivot objects with covering radii. The hypersphere-dominance paper lists
// the M-tree among the sphere-based indexes its operator serves (Section
// 5.1); this package provides it as an alternative substrate for the kNN
// search of package knn, interchangeable with the SS-tree.
//
// The tree itself is package tree's skeleton; what is here is the M-tree's
// policy. Differences from the SS-tree: routing centers are actual object
// centers (pivots) rather than centroids, the insertion heuristic minimises
// covering-radius enlargement rather than centroid distance, and splits use
// the generalised-hyperplane partition around a far-apart pivot pair.
package mtree

import (
	"math"

	"hyperdom/internal/geom"
	"hyperdom/internal/packed"
	"hyperdom/internal/tree"
	"hyperdom/internal/vec"
)

// Item is the indexed unit, shared with the other index packages.
type Item = geom.Item

// Tree is an M-tree over d-dimensional hyperspheres: the shared skeleton
// under the M policy. Construct with New.
type Tree struct{ tree.Tree }

// New returns an empty M-tree for dim-dimensional spheres.
func New(dim int, opts ...tree.Option) *Tree {
	return &Tree{*tree.New(policy{}, dim, opts...)}
}

// policy is the M-tree's half of the tree.Policy contract: pivot spheres
// (Node.Center is a routing object's center, Node.Radius its covering
// radius), least-enlargement descent, generalised-hyperplane split.
type policy struct{}

func (policy) Substrate() packed.Substrate { return packed.SubstrateMTree }
func (policy) Kind() packed.Kind           { return packed.KindSphere }

// Choose prefers a child whose covering sphere already contains the new
// sphere (closest pivot among those); otherwise the child needing the
// least radius enlargement.
func (policy) Choose(n *tree.Node, it Item) int {
	s := it.Sphere
	best := -1
	bestDist := math.Inf(1)
	for i, c := range n.Children {
		d := vec.Dist(c.Center, s.Center)
		if d+s.Radius <= c.Radius && d < bestDist {
			best, bestDist = i, d
		}
	}
	if best >= 0 {
		return best
	}
	bestEnl := math.Inf(1)
	for i, c := range n.Children {
		enl := vec.Dist(c.Center, s.Center) + s.Radius - c.Radius
		if enl < bestEnl {
			best, bestEnl = i, enl
		}
	}
	return best
}

// cover grows n's covering radius to include the sphere (center, radius).
func cover(n *tree.Node, center []float64, radius float64) {
	if r := vec.Dist(n.Center, center) + radius; r > n.Radius {
		n.Radius = r
	}
}

// coverEntries grows n's covering radius over all its entries and
// recomputes its count.
func coverEntries(n *tree.Node) {
	n.Count = len(n.Items)
	for _, it := range n.Items {
		cover(n, it.Sphere.Center, it.Sphere.Radius)
	}
	for _, c := range n.Children {
		n.Count += c.Count
		cover(n, c.Center, c.Radius)
	}
}

// Grow keeps the pivot and only ever enlarges the covering radius: by the
// new item on a leaf (whose first item becomes its pivot), over the
// children — one of which grew or split — on an internal node.
func (policy) Grow(n *tree.Node, it Item) {
	if !n.Leaf {
		coverEntries(n)
		return
	}
	if n.Center == nil {
		n.Center = vec.Clone(it.Sphere.Center)
	}
	cover(n, it.Sphere.Center, it.Sphere.Radius)
	n.Count = len(n.Items)
}

// Refit recomputes the covering radius and count from scratch, keeping the
// current pivot. A node without one — the new root of a root split — adopts
// its first child's, the "parent promotion" of the original M-tree.
func (policy) Refit(n *tree.Node) {
	if n.Center == nil {
		n.Center = vec.Clone(n.Children[0].Center)
	}
	n.Radius = 0
	coverEntries(n)
}

// Split promotes two far-apart entries to pivots and partitions the rest
// by the generalised hyperplane between them.
func (p policy) Split(n *tree.Node, minFill int) (*tree.Node, *tree.Node) {
	pts := n.Centers(nil)
	a, b := farPair(pts)
	la, lb := partition(pts, pts[a], pts[b], minFill)
	mk := func(pivot int, idxs []int) *tree.Node {
		nn := n.Pick(idxs)
		nn.Center = vec.Clone(pts[pivot])
		p.Refit(nn)
		return nn
	}
	return mk(a, la), mk(b, lb)
}

// farPair returns indices of two far-apart points: the point farthest from
// pts[0], and the point farthest from that one — the classic linear-cost
// pivot-promotion heuristic.
func farPair(pts [][]float64) (int, int) {
	a := 0
	bestD := -1.0
	for i, p := range pts {
		if d := vec.Dist2(pts[0], p); d > bestD {
			a, bestD = i, d
		}
	}
	b := 0
	bestD = -1.0
	for i, p := range pts {
		if d := vec.Dist2(pts[a], p); d > bestD {
			b, bestD = i, d
		}
	}
	if a == b {
		b = (a + 1) % len(pts)
	}
	return a, b
}

// partition assigns each index to the nearer of the two pivots, then
// rebalances so both sides reach minFill (moving the entries whose
// pivot-distance difference is smallest).
func partition(pts [][]float64, pa, pb []float64, minFill int) ([]int, []int) {
	bias := make([]float64, len(pts)) // dist to A − dist to B; negative prefers A
	var left, right []int
	for i, p := range pts {
		bias[i] = vec.Dist(pa, p) - vec.Dist(pb, p)
		if bias[i] <= 0 {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	// Rebalance deficient sides by stealing the least-committed entries.
	steal := func(from, to []int) ([]int, []int) {
		bestPos := -1
		bestAbs := math.Inf(1)
		for pos, idx := range from {
			if a := math.Abs(bias[idx]); a < bestAbs {
				bestPos, bestAbs = pos, a
			}
		}
		to = append(to, from[bestPos])
		from = append(from[:bestPos], from[bestPos+1:]...)
		return from, to
	}
	for len(left) < minFill {
		right, left = steal(right, left)
	}
	for len(right) < minFill {
		left, right = steal(left, right)
	}
	return left, right
}
