package sstree

import (
	"sort"

	"hyperdom/internal/obs"
	"hyperdom/internal/tree"
)

var obsBulkItems = obs.New("sstree.bulkload_items")

// BulkLoad builds the tree from the whole item set at once, STR-style:
// items are recursively sorted along the coordinate of highest center
// variance and sliced into evenly-sized runs, one per child, so every leaf
// ends up at the same depth with near-uniform fill. Bulk loading is
// considerably faster than repeated Insert (see BenchmarkBulkLoadVsInsert)
// and that is all it is: each level slices along ONE coordinate, so a node
// is a thin slab across the other d-1, its bounding sphere is far larger
// than an inserted node's, and a kNN walk that prunes on the sphere pays for
// it. Over the serving benchmark's corpora, one tree, HS, k = 10, items
// scanned per query by the pointer walk: 1,005 inserted → 49,440 bulk-loaded
// (n = 100k, d = 4; nodes visited 186 → 2,270), 47,490 → 99,508 (100k,
// d = 10), 8,268 → 45,585 (50k, d = 6). The frozen tree's walk also prunes
// on each child's box (packed.Tree.ChildMinDists), which fits a slab as well
// as it fits anything, and the gap all but closes: 465 → 711 (nodes 62 → 42),
// 23,646 → 34,652, 4,206 → 8,233. Use it where build time is the point
// (cmd/benchkernel's rebuild baseline); shard.Build inserts.
//
// The tree must be empty; items are not retained (their slice may be
// reused), but the spheres inside them are shared, not copied.
func (t *Tree) BulkLoad(items []Item) {
	if t.Len() != 0 {
		panic("sstree: BulkLoad into a non-empty tree")
	}
	for _, it := range items {
		if err := tree.CheckItem(t.Dim(), it); err != nil {
			panic("sstree: BulkLoad: " + err.Error())
		}
	}
	var root *tree.Node
	if len(items) > 0 {
		buf := make([]Item, len(items))
		copy(buf, items)
		_, maxFill := t.Fill()
		height := 1
		for cap := maxFill; cap < len(buf); cap *= maxFill {
			height++
		}
		root = bulkBuild(policy{t.Dim()}, buf, height, maxFill)
	}
	tree.Install(&t.Tree, root, len(items))
	if obs.On() {
		obsBulkItems.Add(uint64(len(items)))
	}
}

// bulkBuild constructs a subtree of the given height over items, which it
// may reorder.
func bulkBuild(p policy, items []Item, height, maxFill int) *tree.Node {
	n := &tree.Node{Leaf: height == 1}
	if n.Leaf {
		n.Items = append([]Item(nil), items...)
		p.Refit(n)
		return n
	}
	// Capacity of one child subtree.
	childCap := 1
	for i := 0; i < height-1; i++ {
		childCap *= maxFill
	}
	k := (len(items) + childCap - 1) / childCap
	if k < 2 {
		k = 2
	}
	if k > maxFill {
		k = maxFill
	}
	pts := make([][]float64, len(items))
	for i, it := range items {
		pts[i] = it.Sphere.Center
	}
	dim := maxVarianceDim(pts)
	sort.Slice(items, func(a, b int) bool {
		return items[a].Sphere.Center[dim] < items[b].Sphere.Center[dim]
	})
	base := len(items) / k
	rem := len(items) % k
	start := 0
	for i := 0; i < k && start < len(items); i++ {
		size := base
		if i < rem {
			size++
		}
		if size == 0 {
			continue
		}
		n.Children = append(n.Children, bulkBuild(p, items[start:start+size], height-1, maxFill))
		start += size
	}
	p.Refit(n)
	return n
}
