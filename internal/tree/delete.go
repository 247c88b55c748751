package tree

import (
	"hyperdom/internal/obs"
	"hyperdom/internal/vec"
)

// Delete removes one item with the given ID and an equal sphere from the
// tree and reports whether such an item was found. Underflowing nodes are
// dissolved and the items beneath them reinserted — Guttman's condense-tree,
// which the SS-tree and M-tree literature adopts — keeping the tree
// balanced in the amortised sense.
func (t *Tree) Delete(it Item) bool {
	if t.root == nil {
		return false
	}
	var orphans []Item
	if !t.delete(t.root, it, &orphans) {
		return false
	}
	t.size--
	// Collapse a root that lost its fanout.
	for !t.root.Leaf && len(t.root.Children) == 1 {
		t.root = t.root.Children[0]
	}
	if t.root.Leaf && len(t.root.Items) == 0 {
		t.root = nil
	}
	// Orphans never left the index as far as Len and the insert counter
	// are concerned: they go back through place, not Insert.
	for _, o := range orphans {
		t.place(o)
	}
	if obs.On() {
		t.obs.deletes.Inc()
		t.obs.reinserts.Add(uint64(len(orphans)))
	}
	return true
}

func sameItem(a, b Item) bool {
	return a.ID == b.ID && a.Sphere.Radius == b.Sphere.Radius &&
		vec.Equal(a.Sphere.Center, b.Sphere.Center)
}

// delete removes it from the subtree, collecting orphaned items from
// dissolved nodes into orphans. It reports whether the item was found.
func (t *Tree) delete(n *Node, it Item, orphans *[]Item) bool {
	if !n.mayHold(it) {
		return false
	}
	for i, cand := range n.Items {
		if sameItem(cand, it) {
			n.Items = append(n.Items[:i], n.Items[i+1:]...)
			t.pol.Refit(n)
			return true
		}
	}
	for i, c := range n.Children {
		if !t.delete(c, it, orphans) {
			continue
		}
		if len(c.Items)+len(c.Children) < t.minFill && len(n.Children) > 1 {
			collectItems(c, orphans)
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
		}
		t.pol.Refit(n)
		return true
	}
	return false
}

func collectItems(n *Node, out *[]Item) {
	*out = append(*out, n.Items...)
	for _, c := range n.Children {
		collectItems(c, out)
	}
}

// CheckInvariants validates the structural invariants of the tree and
// returns a description of the first violation, or "" if the tree is
// consistent. Intended for tests and debugging.
//
// Invariants: every leaf at the same depth; every node's count equals the
// items beneath it; every item's sphere and every child's bound is inside
// its parent's bound (within a small float tolerance); fanout within
// [minFill, maxFill] except at the root.
func (t *Tree) CheckInvariants() string {
	if t.root == nil {
		if t.size != 0 {
			return "empty root but non-zero size"
		}
		return ""
	}
	leafDepth := -1
	total := 0
	var walk func(n *Node, depth int) string
	walk = func(n *Node, depth int) string {
		fill := len(n.Items) + len(n.Children)
		if fill > t.maxFill {
			return "node overflow"
		}
		if depth != 0 && fill < t.minFill {
			return "node fill below minimum"
		}
		if n.Leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return "leaves at differing depths"
			}
			if n.Count != len(n.Items) || len(n.Children) != 0 {
				return "leaf count mismatch"
			}
			total += len(n.Items)
			for _, it := range n.Items {
				if !n.contains(it.Sphere) {
					return "item escapes leaf bound"
				}
			}
			return ""
		}
		if len(n.Items) != 0 {
			return "internal node holds items"
		}
		if depth == 0 && len(n.Children) < 2 {
			return "internal root with fewer than 2 children"
		}
		cnt := 0
		for _, c := range n.Children {
			if !n.containsChild(c) {
				return "child escapes parent bound"
			}
			if msg := walk(c, depth+1); msg != "" {
				return msg
			}
			cnt += c.Count
		}
		if n.Count != cnt {
			return "internal count mismatch"
		}
		return ""
	}
	if msg := walk(t.root, 0); msg != "" {
		return msg
	}
	if total != t.size {
		return "tree size does not match item total"
	}
	return ""
}
