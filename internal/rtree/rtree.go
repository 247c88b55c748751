// Package rtree implements a Guttman R-tree over hypersphere items, the
// rectangle-bounded baseline the sphere-tree literature — and the paper's
// introduction — compares against: "manipulating with hyperspheres in their
// indexing structures is very effective … compared with conventional
// well-known indexing structures based on hyperrectangles such as R-tree".
//
// The tree itself is package tree's skeleton; what is here is the R-tree's
// policy. Items are hyperspheres; each is indexed under its minimum
// bounding rectangle. Insertion uses least-volume-enlargement subtree
// choice and Guttman's quadratic split. The tree plugs into the same kNN
// searches as the SS-tree and M-tree (package knn), which is what makes the
// node-access comparison in BenchmarkIndexNodeAccesses meaningful.
package rtree

import (
	"math"

	"hyperdom/internal/geom"
	"hyperdom/internal/tree"
)

// Item is the indexed unit, shared with the other index packages.
type Item = geom.Item

// Tree is an R-tree over d-dimensional hypersphere items: the shared
// skeleton under the R policy. Construct with New.
type Tree struct{ tree.Tree }

// New returns an empty R-tree for dim-dimensional sphere items.
func New(dim int, opts ...tree.Option) *Tree {
	return &Tree{*tree.New(policy{}, dim, opts...)}
}

// policy is the R-tree's half of the tree.Policy contract: MBRs
// (Node.Rect), least-enlargement descent, quadratic split.
type policy struct{}

func (policy) Substrate() tree.Substrate { return tree.RTree }

// extend grows r in place to contain s's MBR.
func extend(r *geom.Rect, s geom.Sphere) {
	for i, c := range s.Center {
		if lo := c - s.Radius; lo < r.Lo[i] {
			r.Lo[i] = lo
		}
		if hi := c + s.Radius; hi > r.Hi[i] {
			r.Hi[i] = hi
		}
	}
}

// extendedVolume returns the volume of the union of r and s's MBR without
// materialising either.
func extendedVolume(r geom.Rect, s geom.Sphere) float64 {
	v := 1.0
	for i, c := range s.Center {
		lo, hi := r.Lo[i], r.Hi[i]
		if l := c - s.Radius; l < lo {
			lo = l
		}
		if h := c + s.Radius; h > hi {
			hi = h
		}
		v *= hi - lo
	}
	return v
}

// Choose selects the child whose rectangle needs the least volume
// enlargement to absorb the item's MBR, breaking ties toward the smaller
// volume.
func (policy) Choose(n *tree.Node, it Item) int {
	best := 0
	bestEnl := math.Inf(1)
	bestVol := math.Inf(1)
	for i, c := range n.Children {
		vol := c.Rect.Volume()
		enl := extendedVolume(c.Rect, it.Sphere) - vol
		if enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = i, enl, vol
		}
	}
	return best
}

// Grow unions the new item's MBR into n's rectangle: an MBR only ever
// grows under insertion, so nothing beneath n needs rereading.
func (policy) Grow(n *tree.Node, it Item) {
	if n.Rect.Lo == nil {
		n.Rect = it.Sphere.MBR()
	} else {
		extend(&n.Rect, it.Sphere)
	}
	n.Count++
}

// Refit recomputes n's rectangle and count from its entries.
func (policy) Refit(n *tree.Node) {
	n.Count = len(n.Items)
	if n.Leaf {
		if n.Count == 0 {
			return
		}
		n.Rect = n.Items[0].Sphere.MBR()
		for _, it := range n.Items[1:] {
			extend(&n.Rect, it.Sphere)
		}
		return
	}
	n.Rect = n.Children[0].Rect.Clone()
	for _, c := range n.Children {
		n.Count += c.Count
		geom.UnionRectInto(&n.Rect, c.Rect)
	}
}

// Split is Guttman's quadratic split over the entries' rectangles.
func (p policy) Split(n *tree.Node, minFill int) (*tree.Node, *tree.Node) {
	rects := make([]geom.Rect, 0, len(n.Items)+len(n.Children))
	for _, it := range n.Items {
		rects = append(rects, it.Sphere.MBR())
	}
	for _, c := range n.Children {
		rects = append(rects, c.Rect)
	}
	sa, sb := quadraticSeeds(rects)
	ga, gb := assignGroups(rects, sa, sb, minFill)
	left, right := n.Pick(ga), n.Pick(gb)
	p.Refit(left)
	p.Refit(right)
	return left, right
}

// quadraticSeeds picks the pair of entries wasting the most volume if
// grouped together.
func quadraticSeeds(rects []geom.Rect) (int, int) {
	sa, sb := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			waste := geom.UnionRect(rects[i], rects[j]).Volume() -
				rects[i].Volume() - rects[j].Volume()
			if waste > worst {
				worst, sa, sb = waste, i, j
			}
		}
	}
	return sa, sb
}

// assignGroups distributes indexes 0..n-1 into two groups seeded at sa, sb,
// each entry going to the group it enlarges least.
func assignGroups(rects []geom.Rect, sa, sb, minFill int) ([]int, []int) {
	ra := rects[sa].Clone()
	rb := rects[sb].Clone()
	ga := []int{sa}
	gb := []int{sb}
	for i := range rects {
		if i == sa || i == sb {
			continue
		}
		// Force the deficient side once the remainder runs out.
		remaining := len(rects) - len(ga) - len(gb)
		switch {
		case len(ga)+remaining == minFill:
			ga = append(ga, i)
			geom.UnionRectInto(&ra, rects[i])
			continue
		case len(gb)+remaining == minFill:
			gb = append(gb, i)
			geom.UnionRectInto(&rb, rects[i])
			continue
		}
		enlA := geom.UnionRect(ra, rects[i]).Volume() - ra.Volume()
		enlB := geom.UnionRect(rb, rects[i]).Volume() - rb.Volume()
		if enlA < enlB || (enlA == enlB && len(ga) <= len(gb)) {
			ga = append(ga, i)
			geom.UnionRectInto(&ra, rects[i])
		} else {
			gb = append(gb, i)
			geom.UnionRectInto(&rb, rects[i])
		}
	}
	return ga, gb
}
