package tree

import (
	"hyperdom/internal/geom"
	"hyperdom/internal/vec"
)

// The read side of the two bound forms. A node's own fields say which form
// it carries (only a rectangle-bounded node has Rect set), so a Cursor
// stays one pointer and boxing it into an interface does not allocate.

func (n *Node) rectBound() bool { return n.Rect.Lo != nil }

func (n *Node) sphere() geom.Sphere { return geom.Sphere{Center: n.Center, Radius: n.Radius} }

// minDist is a lower bound on the distance from any item under n to q.
func (n *Node) minDist(q geom.Sphere) float64 {
	if n.rectBound() {
		return geom.MinDistRectSphere(n.Rect, q)
	}
	return geom.MinDist(n.sphere(), q)
}

// slack is how far outside n's bound something indexed beneath n can
// appear to lie. An item always lies within its ancestors' bounding
// spheres up to the float error accumulated over refits — each radius is a
// rounded sum of rounded distances — so walks that must not lose an item
// prune spheres with a small relative tolerance. MBRs are exact unions
// (min and max do not round) and need none.
func (n *Node) slack() float64 {
	if n.rectBound() {
		return 0
	}
	return 1e-9 * (1 + n.Radius)
}

// mayHold reports whether the subtree under n can hold item it — the
// delete descent's pruning test: the item's center within a sphere bound,
// the item's MBR meeting a rectangle bound.
func (n *Node) mayHold(it Item) bool {
	s := it.Sphere
	if !n.rectBound() {
		return vec.Dist(n.Center, s.Center) <= n.Radius+n.slack()
	}
	for i, c := range s.Center {
		if n.Rect.Hi[i] < c-s.Radius || c+s.Radius < n.Rect.Lo[i] {
			return false
		}
	}
	return true
}

// contains reports whether sphere s lies inside n's bound, within the
// float tolerance CheckInvariants allows.
func (n *Node) contains(s geom.Sphere) bool {
	if !n.rectBound() {
		return geom.Sphere{Center: n.Center, Radius: n.Radius * (1 + 1e-9)}.ContainsSphere(s)
	}
	for i, c := range s.Center {
		if c-s.Radius < n.Rect.Lo[i]-1e-9 || c+s.Radius > n.Rect.Hi[i]+1e-9 {
			return false
		}
	}
	return true
}

// containsChild reports whether child c's bound lies inside n's.
func (n *Node) containsChild(c *Node) bool {
	if !n.rectBound() {
		return n.contains(c.sphere())
	}
	for i := range c.Rect.Lo {
		if c.Rect.Lo[i] < n.Rect.Lo[i]-1e-9 || c.Rect.Hi[i] > n.Rect.Hi[i]+1e-9 {
			return false
		}
	}
	return true
}
