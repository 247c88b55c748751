// Package sstree implements an SS-tree (White & Jain, ICDE 1996): a
// height-balanced similarity-search tree whose nodes are bounded by
// hyperspheres rather than hyperrectangles. The paper's kNN experiments
// (Section 7.2) index the dataset with an SS-tree and run the DF and HS
// search strategies over it; this package provides the index, and package
// knn provides the searches.
//
// The tree itself — insert descent, delete, freeze, cursor — is package
// tree's skeleton; what is here is the SS-tree's policy. Each node
// maintains the centroid of the sphere centers stored beneath it and a
// covering radius, so the bounding sphere of a node is directly comparable
// against a query hypersphere with geom.MinDist/MaxDist. Insertion descends
// to the child with the nearest centroid and splits overflowing nodes along
// the coordinate of highest centroid variance, the two defining heuristics
// of the SS-tree. Bulk loading and the gob serialisation are SS-only.
package sstree

import (
	"math"
	"sort"

	"hyperdom/internal/geom"
	"hyperdom/internal/packed"
	"hyperdom/internal/tree"
	"hyperdom/internal/vec"
)

// Item is one indexed hypersphere together with its caller-assigned ID.
// It is an alias for geom.Item so that indexes and search algorithms share
// one item type.
type Item = geom.Item

// Tree is an SS-tree over d-dimensional hyperspheres: the shared skeleton
// under the SS policy. The zero value is not usable; construct with New.
type Tree struct{ tree.Tree }

// New returns an empty SS-tree for dim-dimensional spheres.
func New(dim int, opts ...tree.Option) *Tree {
	return &Tree{*tree.New(policy{dim}, dim, opts...)}
}

// policy is the SS-tree's half of the tree.Policy contract: centroid
// spheres, nearest-centroid descent, maximum-variance split.
type policy struct{ dim int }

func (policy) Substrate() packed.Substrate { return packed.SubstrateSSTree }
func (policy) Kind() packed.Kind           { return packed.KindSphere }

// Choose returns the index of the child whose centroid is nearest to the
// item's center, breaking ties toward the smaller covering radius.
func (policy) Choose(n *tree.Node, it Item) int {
	best := 0
	bestDist := math.Inf(1)
	for i, c := range n.Children {
		d := vec.Dist2(c.Center, it.Sphere.Center)
		if d < bestDist || (d == bestDist && c.Radius < n.Children[best].Radius) {
			best, bestDist = i, d
		}
	}
	return best
}

// Grow refits: a new item moves the centroid, so the covering radius
// cannot be grown in place.
func (p policy) Grow(n *tree.Node, _ Item) { p.Refit(n) }

// Refit recomputes the centroid (mean of the underlying sphere centers),
// covering radius and count of n from its direct entries, items on a leaf
// and count-weighted child centroids otherwise.
func (p policy) Refit(n *tree.Node) {
	if n.Center == nil {
		n.Center = make([]float64, p.dim)
	}
	clear(n.Center)
	n.Radius = 0
	n.Count = len(n.Items)
	for _, c := range n.Children {
		n.Count += c.Count
	}
	if n.Count == 0 {
		return
	}
	for _, it := range n.Items {
		for i, x := range it.Sphere.Center {
			n.Center[i] += x
		}
	}
	for _, c := range n.Children {
		w := float64(c.Count)
		for i, x := range c.Center {
			n.Center[i] += w * x
		}
	}
	inv := 1 / float64(n.Count)
	for i := range n.Center {
		n.Center[i] *= inv
	}
	for _, it := range n.Items {
		if r := vec.Dist(n.Center, it.Sphere.Center) + it.Sphere.Radius; r > n.Radius {
			n.Radius = r
		}
	}
	for _, c := range n.Children {
		if r := vec.Dist(n.Center, c.Center) + c.Radius; r > n.Radius {
			n.Radius = r
		}
	}
}

// Split sorts n's entries along the coordinate of highest center variance
// and cuts where the two sides' summed variance is least; n keeps the low
// side.
func (p policy) Split(n *tree.Node, minFill int) (*tree.Node, *tree.Node) {
	pts := n.Centers(nil)
	dim := maxVarianceDim(pts)
	if n.Leaf {
		sort.Slice(n.Items, func(i, j int) bool {
			return n.Items[i].Sphere.Center[dim] < n.Items[j].Sphere.Center[dim]
		})
	} else {
		sort.Slice(n.Children, func(i, j int) bool {
			return n.Children[i].Center[dim] < n.Children[j].Center[dim]
		})
	}
	vals := make([]float64, len(pts))
	for i, c := range n.Centers(pts[:0]) {
		vals[i] = c[dim]
	}
	k := bestSplitIndex(vals, minFill)
	right := &tree.Node{Leaf: n.Leaf}
	if n.Leaf {
		right.Items = append(right.Items, n.Items[k:]...)
		n.Items = n.Items[:k]
	} else {
		right.Children = append(right.Children, n.Children[k:]...)
		n.Children = n.Children[:k]
	}
	p.Refit(n)
	p.Refit(right)
	return n, right
}

// maxVarianceDim returns the coordinate with the highest variance over the
// given points.
func maxVarianceDim(pts [][]float64) int {
	best, bestVar := 0, -1.0
	n := float64(len(pts))
	for i := range pts[0] {
		var s, s2 float64
		for _, p := range pts {
			s += p[i]
			s2 += p[i] * p[i]
		}
		v := s2/n - (s/n)*(s/n)
		if v > bestVar {
			best, bestVar = i, v
		}
	}
	return best
}

// bestSplitIndex returns k minimising the summed variance of vals[:k] and
// vals[k:] along the split coordinate, with both sides at least minFill.
// vals must be sorted.
func bestSplitIndex(vals []float64, minFill int) int {
	n := len(vals)
	prefix := make([]float64, n+1)
	prefix2 := make([]float64, n+1)
	for i, v := range vals {
		prefix[i+1] = prefix[i] + v
		prefix2[i+1] = prefix2[i] + v*v
	}
	ss := func(lo, hi int) float64 { // sum of squared deviations of vals[lo:hi]
		c := float64(hi - lo)
		s := prefix[hi] - prefix[lo]
		s2 := prefix2[hi] - prefix2[lo]
		return s2 - s*s/c
	}
	bestK, bestCost := minFill, math.Inf(1)
	for k := minFill; k <= n-minFill; k++ {
		if cost := ss(0, k) + ss(k, n); cost < bestCost {
			bestK, bestCost = k, cost
		}
	}
	return bestK
}
