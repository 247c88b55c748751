package packed

import (
	"math"
	"testing"

	"hyperdom/internal/geom"
)

func sph(id int, center []float64, r float64) geom.Item {
	return geom.Item{ID: id, Sphere: geom.Sphere{Center: center, Radius: r}}
}

// buildTwoLevel assembles a 2-level sphere tree by hand:
// root → [leaf0{items a,b}, leaf1{items c}].
func buildTwoLevel(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder(KindSphere, 2)
	l0 := b.Leaf([]geom.Item{sph(1, []float64{0, 0}, 0.5), sph(2, []float64{1, 0}, 0.25)})
	l1 := b.Leaf([]geom.Item{sph(3, []float64{4, 4}, 1)})
	root := b.InternalSphere(
		[]int32{l0, l1},
		[][]float64{{0.5, 0}, {4, 4}},
		[]float64{1.25, 1},
	)
	return b.FinishSphere(root, []float64{2, 2}, 4)
}

func TestBuilderStructure(t *testing.T) {
	pt := buildTwoLevel(t)
	if pt.Kind() != KindSphere || pt.Dim() != 2 {
		t.Fatalf("kind/dim = %v/%d", pt.Kind(), pt.Dim())
	}
	if pt.Empty() || pt.NumNodes() != 3 || pt.Len() != 3 {
		t.Fatalf("empty=%v nodes=%d items=%d", pt.Empty(), pt.NumNodes(), pt.Len())
	}
	root := pt.Root()
	if pt.IsLeaf(root) {
		t.Fatal("root should be internal")
	}
	kids := pt.Children(root)
	if len(kids) != 2 || !pt.IsLeaf(kids[0]) || !pt.IsLeaf(kids[1]) {
		t.Fatalf("children = %v", kids)
	}
	if got := pt.LeafItems(kids[0]); len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("leaf0 items = %v", got)
	}
	if got := pt.LeafItems(kids[1]); len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("leaf1 items = %v", got)
	}
	if got := pt.ItemRadii(kids[0]); len(got) != 2 || got[0] != 0.5 || got[1] != 0.25 {
		t.Fatalf("leaf0 radii = %v", got)
	}
}

// TestAccessorsMatchScalar checks that ChildMinDists / LeafDists /
// RootMinDist agree bit-for-bit with the scalar geom helpers the pointer
// traversal uses.
func TestAccessorsMatchScalar(t *testing.T) {
	pt := buildTwoLevel(t)
	q := geom.Sphere{Center: []float64{0.25, 3}, Radius: 0.75}

	if got, want := pt.RootMinDist(q), geom.MinDist(geom.Sphere{Center: []float64{2, 2}, Radius: 4}, q); got != want {
		t.Fatalf("RootMinDist = %v, want %v", got, want)
	}

	// A negative dk is outside the box pass's domain: the sphere bound alone.
	root := pt.Root()
	dst := make([]float64, 2)
	pt.ChildMinDists(root, q, -1, dst)
	bounds := []geom.Sphere{
		{Center: []float64{0.5, 0}, Radius: 1.25},
		{Center: []float64{4, 4}, Radius: 1},
	}
	for i, b := range bounds {
		if want := geom.MinDist(b, q); dst[i] != want {
			t.Fatalf("ChildMinDists[%d] = %v, want %v", i, dst[i], want)
		}
	}

	leaf0 := pt.Children(root)[0]
	ld := make([]float64, 2)
	pt.LeafDists(leaf0, q.Center, ld)
	for i, it := range pt.LeafItems(leaf0) {
		dx := it.Sphere.Center[0] - q.Center[0]
		dy := it.Sphere.Center[1] - q.Center[1]
		if want := math.Sqrt(dx*dx + dy*dy); ld[i] != want {
			t.Fatalf("LeafDists[%d] = %v, want %v", i, ld[i], want)
		}
	}
}

// TestChildMinDistsBox pins the second bound on the hand-built tree: leaf0's
// items span [-0.5,1.25]×[-0.5,0.5], so from (0.25,3) with radius 0.75 its
// box stands 2.5−0.75 away where its sphere says ≈1.01; leaf1's box [3,5]²
// stands 2 away and its sphere ≈2.13, so there the sphere stays. An unbounded
// dk raises leaf0's key to just under the box distance; a dk between its two
// bounds rejects it with the smallest key above dk; a dk below the sphere
// bound never consults the box.
func TestChildMinDistsBox(t *testing.T) {
	pt := buildTwoLevel(t)
	q := geom.Sphere{Center: []float64{0.25, 3}, Radius: 0.75}
	sphere := make([]float64, 2)
	pt.ChildMinDists(pt.Root(), q, -1, sphere)

	dst := make([]float64, 2)
	if n := pt.ChildMinDists(pt.Root(), q, math.Inf(1), dst); n != 0 {
		t.Fatalf("unbounded dk rejected %d children", n)
	}
	if !(dst[0] <= 1.75 && dst[0] > 1.75-1e-6) || dst[1] != sphere[1] {
		t.Fatalf("raised keys = %v, want just under 1.75 and the sphere's %v", dst, sphere[1])
	}
	if n := pt.ChildMinDists(pt.Root(), q, 1.5, dst); n != 1 {
		t.Fatalf("dk=1.5 rejected %d children, want 1", n)
	}
	if dst[0] != math.Nextafter(1.5, 2) || dst[1] != sphere[1] {
		t.Fatalf("dk=1.5 keys = %v, want the float above 1.5 and the sphere's %v", dst, sphere[1])
	}
	if n := pt.ChildMinDists(pt.Root(), q, 1, dst); n != 0 || dst[0] != sphere[0] {
		t.Fatalf("dk=1: %d rejected, keys %v, want the sphere's %v", n, dst, sphere)
	}
}

func TestRectBuilder(t *testing.T) {
	b := NewBuilder(KindRect, 2)
	l0 := b.Leaf([]geom.Item{sph(7, []float64{1, 1}, 0.5)})
	root := b.InternalRect([]int32{l0}, [][]float64{{0.5, 0.5}}, [][]float64{{1.5, 1.5}})
	pt := b.FinishRect(root, []float64{0.5, 0.5}, []float64{1.5, 1.5})

	q := geom.Sphere{Center: []float64{3, 1}, Radius: 0.25}
	wantRoot := geom.MinDistRectSphere(geom.Rect{Lo: []float64{0.5, 0.5}, Hi: []float64{1.5, 1.5}}, q)
	if got := pt.RootMinDist(q); got != wantRoot {
		t.Fatalf("rect RootMinDist = %v, want %v", got, wantRoot)
	}
	dst := make([]float64, 1)
	pt.ChildMinDists(pt.Root(), q, math.Inf(1), dst)
	if dst[0] != wantRoot {
		t.Fatalf("rect ChildMinDists = %v, want %v", dst[0], wantRoot)
	}
}

// TestRootOrder pins the forest walk's sort key for both bound kinds: the
// root's MinDist while the bound is clear of the query, and below zero —
// growing with the distance to the bound's center — once it touches.
func TestRootOrder(t *testing.T) {
	sphere := buildTwoLevel(t) // root bound: center (2,2), radius 4
	b := NewBuilder(KindRect, 2)
	l0 := b.Leaf([]geom.Item{sph(7, []float64{1, 1}, 0.5)})
	rect := b.FinishRect(b.InternalRect([]int32{l0}, [][]float64{{0.5, 0.5}}, [][]float64{{1.5, 1.5}}),
		[]float64{0, 0}, []float64{4, 4}) // root bound: center (2,2)
	for _, pt := range []*Tree{sphere, rect} {
		far := geom.Sphere{Center: []float64{20, 2}, Radius: 1}
		if got, want := pt.RootOrder(far), pt.RootMinDist(far); got != want || got <= 0 {
			t.Errorf("%v: clear of the bound, RootOrder = %v, RootMinDist = %v", pt.Kind(), got, want)
		}
		centred := pt.RootOrder(geom.Sphere{Center: []float64{2, 2}, Radius: 0.5})
		off := pt.RootOrder(geom.Sphere{Center: []float64{3, 3}, Radius: 0.5})
		edge := pt.RootOrder(geom.Sphere{Center: []float64{4.25, 2}, Radius: 0.5})
		if !(centred < off && off < edge && edge < 0) {
			t.Errorf("%v: touching keys %v, %v, %v: want ascending with center distance, all below zero", pt.Kind(), centred, off, edge)
		}
	}
}

func TestFinishEmpty(t *testing.T) {
	pt := NewBuilder(KindSphere, 3).FinishEmpty()
	if !pt.Empty() || pt.NumNodes() != 0 || pt.Len() != 0 {
		t.Fatalf("empty tree: empty=%v nodes=%d len=%d", pt.Empty(), pt.NumNodes(), pt.Len())
	}
}

func TestBuilderPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero dim", func() { NewBuilder(KindSphere, 0) })
	expectPanic("wrong item dim", func() {
		NewBuilder(KindSphere, 2).Leaf([]geom.Item{sph(1, []float64{1, 2, 3}, 1)})
	})
	expectPanic("rect on sphere builder", func() {
		NewBuilder(KindSphere, 2).InternalRect(nil, nil, nil)
	})
	expectPanic("sphere on rect builder", func() {
		NewBuilder(KindRect, 2).InternalSphere(nil, nil, nil)
	})
	expectPanic("ragged children", func() {
		NewBuilder(KindSphere, 2).InternalSphere([]int32{0}, nil, []float64{1})
	})
	expectPanic("root out of range", func() {
		b := NewBuilder(KindSphere, 2)
		b.FinishSphere(5, []float64{0, 0}, 1)
	})
}
