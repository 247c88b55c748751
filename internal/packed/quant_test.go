package packed

import (
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/vec"
)

// buildQuantLeaf freezes one leaf of n random item spheres and returns the
// tree and the leaf's id.
func buildQuantLeaf(rng *rand.Rand, dim, n int, spread float64) (*Tree, int32) {
	items := make([]geom.Item, n)
	for i := range items {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.NormFloat64() * spread
		}
		items[i] = geom.Item{ID: i, Sphere: geom.Sphere{Center: c, Radius: math.Abs(rng.NormFloat64() * spread / 10)}}
	}
	b := NewBuilder(KindSphere, dim)
	leaf := b.Leaf(items)
	return b.FinishSphere(leaf, items[0].Sphere.Center, spread*10), leaf
}

// leafMinDists returns the exact per-item mindist expression the traversal
// evaluates for leaf n: dist − radius − qr, clamped at 0.
func leafMinDists(t *Tree, n int32, q geom.Sphere) []float64 {
	exact := make([]float64, len(t.LeafItems(n)))
	for i, r := range t.ItemRadii(n) {
		if m := t.LeafDistAt(n, int32(i), q.Center) - r - q.Radius; m > 0 {
			exact[i] = m
		} else {
			exact[i] = 0
		}
	}
	return exact
}

// selectKept runs LeafQuantSelect and returns which item indices survived.
func selectKept(t *Tree, tier Tier, n int32, q geom.Sphere, dk float64) []bool {
	sel := make([]int32, len(t.LeafItems(n)))
	kept := make([]bool, len(sel))
	m, _ := t.LeafQuantSelect(tier, n, q, dk, sel)
	for _, i := range sel[:m] {
		kept[i] = true
	}
	return kept
}

// TestLeafSelectTotal checks that the leaf select is the whole index
// source of the leaf pass: wherever the tier cannot prune — no tier, an
// unbounded or negative dk, a negative or NaN query radius — it names
// every item of the leaf, in ascending order, and says it did not run;
// wherever it can, it names a strictly ascending subset.
func TestLeafSelectTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	const n = 9
	pt, leaf := buildQuantLeaf(rng, 4, n, 1)
	center := []float64{0.5, -0.25, 1, 0}
	sel := make([]int32, n)
	for _, tc := range []struct {
		tier   Tier
		qr, dk float64
		ran    bool
	}{
		{TierNone, 0.5, 1, false},
		{Tier(7), 0.5, 1, false},
		{TierF32, 0.5, math.Inf(1), false},
		{TierI8, 0.5, math.Inf(1), false},
		{TierF32, 0.5, -1, false},
		{TierI8, 0.5, math.NaN(), false},
		{TierF32, -0.5, 1, false},
		{TierI8, math.NaN(), 1, false},
		{TierF32, 0.5, 0, true},
		{TierI8, 0.5, 0, true},
	} {
		for i := range sel {
			sel[i] = -1
		}
		m, ran := pt.LeafQuantSelect(tc.tier, leaf, geom.Sphere{Center: center, Radius: tc.qr}, tc.dk, sel)
		if ran != tc.ran {
			t.Fatalf("tier=%v qr=%v dk=%v: ran = %v, want %v", tc.tier, tc.qr, tc.dk, ran, tc.ran)
		}
		if !ran && m != n {
			t.Fatalf("tier=%v qr=%v dk=%v: %d of %d items replayed", tc.tier, tc.qr, tc.dk, m, n)
		}
		for j, i := range sel[:m] {
			if !ran && i != int32(j) || j > 0 && i <= sel[j-1] || i < 0 || i >= n {
				t.Fatalf("tier=%v qr=%v dk=%v: indices %v", tc.tier, tc.qr, tc.dk, sel[:m])
			}
		}
	}
}

// TestQuantBoundsConservative checks, over both tiers, that every item the
// leaf select drops has exact mindist > dk, on well-behaved random geometry
// across several scales and with dk cutting through the middle of the
// leaf's mindist range (the fuzz target covers the hostile inputs).
func TestQuantBoundsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, spread := range []float64{1e-6, 1, 1e3, 1e12} {
		for trial := 0; trial < 30; trial++ {
			dim := 2 + rng.Intn(9)
			n := 1 + rng.Intn(8)
			pt, leaf := buildQuantLeaf(rng, dim, n, spread)
			qc := make([]float64, dim)
			for j := range qc {
				qc[j] = rng.NormFloat64() * spread
			}
			q := geom.Sphere{Center: qc, Radius: math.Abs(rng.NormFloat64() * spread / 8)}
			exact := leafMinDists(pt, leaf, q)
			for _, tier := range []Tier{TierF32, TierI8} {
				for _, dk := range []float64{0, exact[n/2], exact[rng.Intn(n)] / 2} {
					for i, kept := range selectKept(pt, tier, leaf, q, dk) {
						if !kept && !(exact[i] > dk) {
							t.Fatalf("spread=%g tier=%d item %d: dropped but exact mindist %v <= dk %v",
								spread, tier, i, exact[i], dk)
						}
					}
				}
			}
		}
	}
}

// TestQuantBoundsTight guards the other half of the design: on well-scaled
// data the narrow bounds must track the exact mindist closely enough to
// prune with — a select that keeps everything would satisfy conservatism
// while silently disabling the coarse filter. f32 carries ~1e-7 relative
// center error; int8 resolves the leaf's extent in 254 steps, so its bound
// may undershoot by a few leaf-diameter LSBs but no more.
func TestQuantBoundsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	dim, n := 6, 8
	pt, leaf := buildQuantLeaf(rng, dim, n, 100)
	qc := make([]float64, dim)
	for j := range qc {
		qc[j] = rng.NormFloat64()*100 + 500 // far query: mindists well above 0
	}
	q := geom.Sphere{Center: qc, Radius: 1}
	exact := leafMinDists(pt, leaf, q)

	// Leaf extent is a few hundred units, 254 steps → LSB ~ a few units;
	// center displacement across dim coords stays within ~3 LSB plus the
	// radius LSB.
	for _, tc := range []struct {
		tier   Tier
		margin func(e float64) float64
	}{
		{TierF32, func(e float64) float64 { return e * 1e-5 }},
		{TierI8, func(float64) float64 { return 40 }},
	} {
		for _, dk := range exact {
			for i, kept := range selectKept(pt, tc.tier, leaf, q, dk) {
				if kept && exact[i]-tc.margin(exact[i]) > dk {
					t.Fatalf("tier=%d item %d kept at dk %v though exact mindist is %v", tc.tier, i, dk, exact[i])
				}
			}
		}
	}
}

// TestQuantEntryAccessors: the leaf pass's exact distance must equal the
// pointer path's vec.Dist bit for bit.
func TestQuantEntryAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	dim, n := 5, 7
	pt, leaf := buildQuantLeaf(rng, dim, n, 10)
	qc := make([]float64, dim)
	for j := range qc {
		qc[j] = rng.NormFloat64() * 10
	}
	for i, it := range pt.LeafItems(leaf) {
		got, want := pt.LeafDistAt(leaf, int32(i), qc), vec.Dist(it.Sphere.Center, qc)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LeafDistAt(%d) = %v, vec.Dist %v", i, got, want)
		}
	}
}
