package dominance

import (
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
)

// Overlaps reports whether Sa and Sb overlap, in which case Dominates is
// constantly false.
func (p *PreparedPair) Overlaps() bool { return p.overlap }

// TestPreparedPairMatchesHyperbola is the differential test behind the
// PreparedPair contract: over random instances of every flavour —
// overlapping, borderline, degenerate, 1-dimensional — the prepared verdict
// must equal Hyperbola{}'s exactly, with no tolerance. Both paths are pure
// float64 arithmetic with identical association, so even boundary instances
// must agree bit for bit.
func TestPreparedPairMatchesHyperbola(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, d := range []int{1, 2, 3, 8, 16} {
		for trial := 0; trial < 4000; trial++ {
			in := randInstance(rng, d)
			pp := PreparePair(in.sa, in.sb)
			got := pp.Dominates(in.sq)
			want := Hyperbola{}.Dominates(in.sa, in.sb, in.sq)
			if got != want {
				t.Fatalf("d=%d: PreparedPair=%v Hyperbola=%v\nsa=%v\nsb=%v\nsq=%v",
					d, got, want, in.sa, in.sb, in.sq)
			}
		}
	}
}

// TestPreparedPairAmortizedReuse drives one prepared pair through many
// queries — the usage pattern the type exists for — and a Reset-reused
// value through fresh pairs, checking agreement with the per-triple path.
func TestPreparedPairAmortizedReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const d = 6
	var pp PreparedPair
	for pair := 0; pair < 50; pair++ {
		sa := randSphereT(rng, d, 10, 3)
		sb := randSphereT(rng, d, 10, 3)
		pp.Reset(sa, sb)
		if pp.Overlaps() != geom.Overlap(sa, sb) {
			t.Fatalf("Overlaps()=%v but geom.Overlap=%v", pp.Overlaps(), geom.Overlap(sa, sb))
		}
		for q := 0; q < 100; q++ {
			sq := randSphereT(rng, d, 10, 3)
			if got, want := pp.Dominates(sq), (Hyperbola{}).Dominates(sa, sb, sq); got != want {
				t.Fatalf("pair %d query %d: PreparedPair=%v Hyperbola=%v", pair, q, got, want)
			}
		}
	}
}

// TestPreparedPairDegenerateCases pins the hand-picked geometries where the
// closed-form machinery branches: rab = 0, p1 = 0 (bisector query), p2 = 0
// (on-axis query), overlapping pairs, tangent pairs, point queries, and the
// 1-dimensional line case.
func TestPreparedPairDegenerateCases(t *testing.T) {
	cases := []struct {
		name       string
		sa, sb, sq geom.Sphere
	}{
		{"rab=0", geom.NewSphere([]float64{0, 0}, 0), geom.NewSphere([]float64{10, 0}, 0), geom.NewSphere([]float64{-3, 1}, 2)},
		{"rab=0 grazing", geom.NewSphere([]float64{0, 0}, 0), geom.NewSphere([]float64{1, 0}, 0), geom.NewSphere([]float64{-3, 0}, 3)},
		{"p1=0 bisector", geom.NewSphere([]float64{-5, 0}, 1), geom.NewSphere([]float64{5, 0}, 2), geom.NewSphere([]float64{0, 7}, 1)},
		{"p2=0 on-axis", geom.NewSphere([]float64{-5, 0}, 1), geom.NewSphere([]float64{5, 0}, 2), geom.NewSphere([]float64{-20, 0}, 1)},
		{"p1=0 p2=0 midpoint", geom.NewSphere([]float64{-5, 0}, 1), geom.NewSphere([]float64{5, 0}, 1), geom.NewSphere([]float64{0, 0}, 1)},
		{"overlap", geom.NewSphere([]float64{0, 0}, 2), geom.NewSphere([]float64{3, 0}, 2), geom.NewSphere([]float64{10, 10}, 1)},
		{"tangent", geom.NewSphere([]float64{0, 0}, 2), geom.NewSphere([]float64{4, 0}, 2), geom.NewSphere([]float64{-9, 0}, 1)},
		{"point query inside", geom.NewSphere([]float64{0, 0}, 1), geom.NewSphere([]float64{9, 0}, 1), geom.NewSphere([]float64{-4, 0}, 0)},
		{"point query outside", geom.NewSphere([]float64{0, 0}, 1), geom.NewSphere([]float64{9, 0}, 1), geom.NewSphere([]float64{5, 0}, 0)},
		{"1-D dominates", geom.NewSphere([]float64{0}, 1), geom.NewSphere([]float64{10}, 1), geom.NewSphere([]float64{-5}, 1)},
		{"1-D boundary", geom.NewSphere([]float64{0}, 1), geom.NewSphere([]float64{10}, 1), geom.NewSphere([]float64{3}, 1)},
	}
	for _, tc := range cases {
		pp := PreparePair(tc.sa, tc.sb)
		got := pp.Dominates(tc.sq)
		want := Hyperbola{}.Dominates(tc.sa, tc.sb, tc.sq)
		if got != want {
			t.Errorf("%s: PreparedPair=%v Hyperbola=%v", tc.name, got, want)
		}
	}
}

// TestPreparedPairPanicsOnMixedDims: the prepared kernel must fail fast on
// dimensionality bugs exactly like checkDims does.
func TestPreparedPairPanicsOnMixedDims(t *testing.T) {
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on mixed dimensionality", name)
			}
		}()
		fn()
	}
	check("PreparePair", func() {
		PreparePair(geom.NewSphere([]float64{0, 0}, 1), geom.NewSphere([]float64{1}, 1))
	})
	check("Dominates", func() {
		pp := PreparePair(geom.NewSphere([]float64{0, 0}, 1), geom.NewSphere([]float64{9, 0}, 1))
		pp.Dominates(geom.NewSphere([]float64{1}, 1))
	})
}

// TestPreparedPairDominatesAllocFree: the per-query path must not touch the
// heap — it is the inner loop of the kNN kernel.
func TestPreparedPairDominatesAllocFree(t *testing.T) {
	sa := geom.NewSphere([]float64{0, 0, 0, 0}, 1)
	sb := geom.NewSphere([]float64{9, 0, 0, 0}, 1)
	queries := []geom.Sphere{
		geom.NewSphere([]float64{-4, 0, 0, 0}, 2),   // quartic path
		geom.NewSphere([]float64{-4, 0, 0, 0}, 0),   // point query
		geom.NewSphere([]float64{20, 3, 0, 0}, 1),   // outside Ra
		geom.NewSphere([]float64{-4, 0.5, 0, 0}, 3), // fat, borderline
	}
	pp := PreparePair(sa, sb)
	var sink bool
	allocs := testing.AllocsPerRun(200, func() {
		for _, sq := range queries {
			sink = pp.Dominates(sq) != sink
		}
	})
	_ = sink
	if allocs != 0 {
		t.Errorf("PreparedPair.Dominates allocated %.1f times per run, want 0", allocs)
	}
}

// FuzzPreparedPairAgree is the adversarial form of the differential test:
// the prepared pair, the anchored kernel and the per-triple Hyperbola must
// return exactly equal verdicts on arbitrary 3-D triples and on their 1-D
// projections. No boundary tolerance is allowed — the three share their
// arithmetic, so any disagreement is a real bug in the factoring. Seeds
// cover the branches of the closed form (overlap, tangency, rab = 0, cq on
// the bisector and on the focal axis, point query), coordinates at 1e±150,
// where squares sit next to the float64 range limits, the edges of the
// kernel's accept bound (boundEdgeTriples), and checks from the benchmark
// corpora that reach the chord and witness certificates, with both
// outcomes and the quartic after them (certStageTriples).
func FuzzPreparedPairAgree(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 1.0, 9.0, 0.0, 0.0, 1.0, -4.0, 0.0, 0.0, 2.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -3.0, 0.0, 0.0, 3.0)   // rab = 0
	f.Add(-5.0, 0.0, 0.0, 1.0, 5.0, 0.0, 0.0, 2.0, 0.0, 7.0, 0.0, 1.0)   // p1 = 0 (bisector)
	f.Add(-5.0, 0.0, 0.0, 1.0, 5.0, 0.0, 0.0, 2.0, -20.0, 0.0, 0.0, 0.0) // p2 = 0 (on-axis)
	f.Add(0.0, 0.0, 0.0, 2.0, 3.0, 0.0, 0.0, 2.0, 10.0, 10.0, 0.0, 1.0)  // overlap
	f.Add(1e6, 1e6, 0.0, 1.0, 1e6+9, 1e6, 0.0, 1.0, 1e6-4, 1e6, 0.0, 2.0)
	f.Add(-5.0, 0.0, 0.0, 1.0, 5.0, 0.0, 0.0, 2.0, -20.0, 0.0, 0.0, 3.0) // p2 = 0, fat query
	f.Add(0.0, 0.0, 0.0, 2.0, 4.0, 0.0, 0.0, 2.0, -9.0, 0.0, 0.0, 1.0)   // tangent
	f.Add(0.0, 0.0, 0.0, 1e150, 9e150, 0.0, 0.0, 1e150, -4e150, 1e150, 0.0, 2e150)
	f.Add(0.0, 0.0, 0.0, 1e-150, 9e-150, 0.0, 0.0, 1e-150, -4e-150, 1e-150, 0.0, 2e-150)
	f.Add(1e150, 0.0, 0.0, 1e-150, -1e150, 1e-150, 0.0, 0.0, 3e150, 0.0, 1e-150, 1.0)
	for _, e := range append(boundEdgeTriples(), certStageTriples()...) {
		f.Add(e[0], e[1], e[2], e[3], e[4], e[5], e[6], e[7], e[8], e[9], e[10], e[11])
	}
	f.Add(vertexMiss[0], vertexMiss[1], vertexMiss[2], vertexMiss[3], vertexMiss[4], vertexMiss[5], vertexMiss[6], vertexMiss[7], vertexMiss[8], vertexMiss[9], vertexMiss[10], vertexMiss[11])
	f.Fuzz(func(t *testing.T, ax, ay, az, ar, bx, by, bz, br, qx, qy, qz, qr float64) {
		for _, v := range []float64{ax, ay, az, ar, bx, by, bz, br, qx, qy, qz, qr} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if ar < 0 || br < 0 || qr < 0 {
			t.Skip()
		}
		var an Anchored
		for _, d := range []int{3, 1} {
			sa := geom.Sphere{Center: []float64{ax, ay, az}[:d], Radius: ar}
			sb := geom.Sphere{Center: []float64{bx, by, bz}[:d], Radius: br}
			sq := geom.Sphere{Center: []float64{qx, qy, qz}[:d], Radius: qr}
			pp := PreparePair(sa, sb)
			an.Reset(Hyperbola{}, sa, sq)
			prep, anch, want := pp.Dominates(sq), an.Dominates(sb), Hyperbola{}.Dominates(sa, sb, sq)
			if prep != want || anch != want {
				t.Fatalf("d=%d: PreparedPair=%v Anchored=%v Hyperbola=%v\nsa=%v\nsb=%v\nsq=%v", d, prep, anch, want, sa, sb, sq)
			}
		}
	})
}
