package tree

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Load makes items, validated as by Insert, the content of t in one pass
// instead of one Insert each. A node of height h over m items gets
// k = ⌈m / maxFill^(h−1)⌉ children, clamped to [2, maxFill], made by Cut
// recursively (the cut that carves a corpus into shards) and finished by the
// policy's Refit. Parts of a cut differ by at most one item, so the tree meets
// the strict CheckInvariants. Load owns items from then on: it reorders the
// slice and its leaves keep clipped sub-slices of it. A function, so that it
// is not promoted into the substrates' method sets.
func Load(t *Tree, items []Item) {
	for _, it := range items {
		if err := CheckItem(t.dim, it); err != nil {
			panic(fmt.Sprintf("%v: Load: %v", t.pol.Substrate(), err))
		}
	}
	var root *Node
	if len(items) > 0 {
		capacity := 1 // items one child subtree of the root can hold
		for capacity*t.maxFill < len(items) {
			capacity *= t.maxFill
		}
		root = t.load(items, capacity)
	}
	Install(t, root, len(items))
}

// load builds the subtree over items whose children hold at most capacity
// items each: a leaf when capacity is 1.
func (t *Tree) load(items []Item, capacity int) *Node {
	n := &Node{Leaf: capacity == 1}
	if n.Leaf {
		n.Items = slices.Clip(items)
	} else {
		k := min(max((len(items)+capacity-1)/capacity, 2), t.maxFill)
		n.Children = make([]*Node, 0, k)
		t.loadParts(n, items, k, capacity/t.maxFill)
	}
	t.pol.Refit(n)
	return n
}

// loadParts cuts items into k parts and appends a subtree over each to n's
// children, in cut order.
func (t *Tree) loadParts(n *Node, items []Item, k, capacity int) {
	if k == 1 {
		n.Children = append(n.Children, t.load(items, capacity))
		return
	}
	_, m := Cut(items, t.dim, k)
	t.loadParts(n, items[:m], (k+1)/2, capacity)
	t.loadParts(n, items[m:], k/2, capacity)
}

// Cut is the one balanced split behind both the shard partition and Load: it
// picks d, the widest center dimension of items, and moves the m =
// len(items)·⌈k/2⌉/k smallest by (center[d], ID) to the front by quickselect,
// neither side sorted. Cutting the left side into ⌈k/2⌉ parts and the right
// into ⌊k/2⌋ the same way ends in k parts whose sizes differ by at most one.
// When m < len(items), items[m] is the first of the right side in that order.
func Cut(items []Item, dim, k int) (d, m int) {
	d = widestDim(items, dim)
	m = len(items) * ((k + 1) / 2) / k
	selectNth(items, m, d)
	return d, m
}

// sampleSize bounds how many item centers widestDim inspects per cut.
const sampleSize = 1024

// widestDim picks the center dimension with the widest spread over a stride
// sample of at most sampleSize items.
func widestDim(items []Item, dim int) int {
	stride := max(1, (len(items)+sampleSize-1)/sampleSize)
	best, bestSpread := 0, math.Inf(-1)
	for d := 0; d < dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < len(items); i += stride {
			c := items[i].Sphere.Center[d]
			lo, hi = min(lo, c), max(hi, c)
		}
		if spread := hi - lo; spread > bestSpread {
			best, bestSpread = d, spread
		}
	}
	return best
}

// selectNth reorders items so that the first m are the m smallest by
// (center[d], ID) and items[m], if any, is the next: Hoare's FIND on a middle
// pivot, which sorts what is left after 2·log₂(len) rounds that have not
// closed in on m, so no input costs more than a sort.
func selectNth(items []Item, m, d int) {
	order := func(a *Item, c float64, id int) int {
		if o := cmp.Compare(a.Sphere.Center[d], c); o != 0 {
			return o
		}
		return cmp.Compare(a.ID, id)
	}
	lo, hi := 0, len(items)-1
	for budget := 2 * bits.Len(uint(len(items))); lo < hi; budget-- {
		if budget == 0 {
			slices.SortFunc(items[lo:hi+1], func(a, b Item) int { return order(&a, b.Sphere.Center[d], b.ID) })
			return
		}
		p := &items[lo+(hi-lo)/2]
		c, id := p.Sphere.Center[d], p.ID
		i, j := lo, hi
		for i <= j {
			for order(&items[i], c, id) < 0 {
				i++
			}
			for order(&items[j], c, id) > 0 {
				j--
			}
			if i <= j {
				items[i], items[j] = items[j], items[i]
				i, j = i+1, j-1
			}
		}
		// items[lo..j] order at or before the pivot, items[i..hi] at or after
		// it, and anything between equals it.
		switch {
		case m <= j:
			hi = j
		case m >= i:
			lo = i
		default:
			return
		}
	}
}
