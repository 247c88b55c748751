package packed

import (
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
)

// boxKey returns the key ChildMinDists writes, under dk, for a single leaf
// of the given items hung below a root whose sphere bound is 0 — the box's
// value alone.
func boxKey(items []geom.Item, q geom.Sphere, dk float64) float64 {
	dim := len(q.Center)
	b := NewBuilder(KindSphere, dim)
	leaf := b.Leaf(items)
	root := b.InternalSphere([]int32{leaf}, [][]float64{make([]float64, dim)}, []float64{math.Inf(1)})
	pt := b.FinishSphere(root, make([]float64, dim), math.Inf(1))
	dst := make([]float64, 1)
	pt.ChildMinDists(root, q, dk, dst)
	return dst[0]
}

// TestBoxBoundConservative is the well-behaved half of FuzzBoxLowerBound:
// random leaves at several scales — integer-valued coordinates included,
// which float32 holds exactly, so nothing is owed to the outward rounding —
// queried along an axis, where a sphere's box is as tight as the sphere
// itself, with dk set to the exact MinDist of an item: the key must not
// exceed any item's MinDist, and a reject must not happen at or below it.
func TestBoxBoundConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(2401))
	for _, spread := range []float64{1e-6, 1, 1e3, 1e12} {
		for trial := 0; trial < 200; trial++ {
			dim := 1 + rng.Intn(6)
			items := make([]geom.Item, 1+rng.Intn(4))
			for i := range items {
				c := make([]float64, dim)
				for j := range c {
					c[j] = rng.NormFloat64() * spread
					if trial%2 == 0 {
						c[j] = math.Round(c[j])
					}
				}
				r := math.Abs(rng.NormFloat64()) * spread / 10
				if trial%2 == 0 {
					r = math.Round(r)
				}
				items[i] = geom.Item{ID: i, Sphere: geom.Sphere{Center: c, Radius: r}}
			}
			// The query sits off one item along one axis, so that item's box
			// and sphere bounds coincide up to rounding.
			qc := append([]float64(nil), items[0].Sphere.Center...)
			qc[rng.Intn(dim)] += (items[0].Sphere.Radius + spread*rng.Float64()) * float64(1-2*rng.Intn(2))
			q := geom.Sphere{Center: qc, Radius: spread * rng.Float64() / 4 * float64(trial%3)}
			least := math.Inf(1)
			for _, it := range items {
				least = min(least, geom.MinDist(it.Sphere, q))
			}
			for _, dk := range []float64{math.Inf(1), least, least / 2, 0} {
				if key := boxKey(items, q, dk); !(key <= least) {
					t.Fatalf("spread=%g dim=%d dk=%v: key %v exceeds the least item MinDist %v\nitems %+v\nq %+v",
						spread, dim, dk, key, least, items, q)
				}
			}
		}
	}
}

// TestBoxRoundsOutwardInFloat64: c − r is itself rounded, and when the
// rounded value happens to be a float32 the narrowing adds no slack of its
// own. 2^60 − 1 rounds to 2^60, so without the one-ulp step outward the box
// would start a unit inside the sphere and a query 256 away from the centre
// would get a key above the item's exact MinDist of 255.
func TestBoxRoundsOutwardInFloat64(t *testing.T) {
	c := math.Ldexp(1, 60)
	items := []geom.Item{{ID: 1, Sphere: geom.Sphere{Center: []float64{c}, Radius: 1}}}
	q := geom.Sphere{Center: []float64{c - 256}}
	exact := geom.MinDist(items[0].Sphere, q)
	if exact != 255 {
		t.Fatalf("fixture: exact MinDist = %v, want 255", exact)
	}
	if key := boxKey(items, q, math.Inf(1)); !(key <= exact) {
		t.Fatalf("key %v exceeds the exact MinDist %v", key, exact)
	}
}
