package hyperdom_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"hyperdom"
)

func TestQuickstartFlow(t *testing.T) {
	sa := hyperdom.NewSphere([]float64{0, 0}, 1)
	sb := hyperdom.NewSphere([]float64{9, 0}, 1)
	sq := hyperdom.NewSphere([]float64{-4, 0}, 2)
	if !hyperdom.Dominates(sa, sb, sq) {
		t.Fatal("quickstart scenario must dominate")
	}
	if hyperdom.Dominates(sb, sa, sq) {
		t.Fatal("reverse direction must not dominate")
	}
}

func TestGeometryHelpers(t *testing.T) {
	a := hyperdom.NewSphere([]float64{0, 0}, 1)
	b := hyperdom.NewSphere([]float64{10, 0}, 2)
	if hyperdom.MinDist(a, b) != 7 || hyperdom.MaxDist(a, b) != 13 {
		t.Error("MinDist/MaxDist re-exports broken")
	}
	if hyperdom.Overlap(a, b) {
		t.Error("disjoint spheres reported overlapping")
	}
	p := hyperdom.Point([]float64{1, 2})
	if !p.IsPoint() {
		t.Error("Point is not a point")
	}
}

func TestCriteriaRegistry(t *testing.T) {
	if len(hyperdom.Criteria()) != 5 {
		t.Fatalf("Criteria() returned %d entries", len(hyperdom.Criteria()))
	}
	for _, name := range []string{"Hyperbola", "MinMax", "MBR", "GP", "Trigonometric", "Exact"} {
		if hyperdom.CriterionByName(name) == nil {
			t.Errorf("CriterionByName(%q) = nil", name)
		}
	}
	if hyperdom.Hyperbola().Name() != "Hyperbola" {
		t.Error("Hyperbola constructor broken")
	}
	if !hyperdom.Hyperbola().Correct() || !hyperdom.Hyperbola().Sound() {
		t.Error("Hyperbola must be correct and sound")
	}
	if hyperdom.Trigonometric().Correct() {
		t.Error("Trigonometric must not claim correctness")
	}
}

func randomItems(n, d int, seed int64) []hyperdom.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]hyperdom.Item, n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		items[i] = hyperdom.Item{Sphere: hyperdom.NewSphere(c, rng.Float64()*5), ID: i}
	}
	return items
}

func TestKNNThroughFacade(t *testing.T) {
	items := randomItems(800, 3, 1)
	ss := hyperdom.NewSSTree(3, 0)
	mt := hyperdom.NewMTree(3, 0)
	for _, it := range items {
		ss.Insert(it)
		mt.Insert(it)
	}
	sq := hyperdom.NewSphere([]float64{100, 100, 100}, 4)
	want := hyperdom.KNNBruteForce(items, sq, 5, hyperdom.Hyperbola())
	for _, strategy := range []hyperdom.SearchStrategy{hyperdom.DepthFirst, hyperdom.BestFirst} {
		got := hyperdom.KNN(ss, sq, 5, hyperdom.Hyperbola(), strategy)
		if len(got.Items) != len(want.Items) {
			t.Fatalf("SS-tree %v: %d items, want %d", strategy, len(got.Items), len(want.Items))
		}
		gotM := hyperdom.KNNOverMTree(mt, sq, 5, hyperdom.Hyperbola(), strategy)
		if len(gotM.Items) != len(want.Items) {
			t.Fatalf("M-tree %v: %d items, want %d", strategy, len(gotM.Items), len(want.Items))
		}
	}
}

// TestKNNBatchMatchesSerial: the batch is KNN per query, in query order,
// whatever the pool width and whether or not the tree is frozen.
func TestKNNBatchMatchesSerial(t *testing.T) {
	items := randomItems(1500, 3, 5)
	ss := hyperdom.NewSSTree(3, 0)
	for _, it := range items {
		ss.Insert(it)
	}
	queries := make([]hyperdom.Sphere, 25)
	for i := range queries {
		queries[i] = items[i*7].Sphere
	}
	for _, frozen := range []bool{false, true} {
		if frozen {
			ss.Freeze()
		}
		want := make([]hyperdom.KNNResult, len(queries))
		for i, q := range queries {
			want[i] = hyperdom.KNN(ss, q, 6, hyperdom.Hyperbola(), hyperdom.BestFirst)
		}
		for _, workers := range []int{0, 1, 3} {
			got := hyperdom.KNNBatch(ss, queries, 6, hyperdom.Hyperbola(), hyperdom.BestFirst, workers)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("frozen=%v workers=%d: batch differs from serial KNN", frozen, workers)
			}
			if empty := hyperdom.KNNBatch(ss, nil, 6, hyperdom.Hyperbola(), hyperdom.BestFirst, workers); len(empty) != 0 {
				t.Errorf("frozen=%v workers=%d: empty batch returned %d results", frozen, workers, len(empty))
			}
		}
	}
}

func TestRKNNAndTopKThroughFacade(t *testing.T) {
	items := randomItems(300, 2, 2)
	ss := hyperdom.NewSSTree(2, 0)
	for _, it := range items {
		ss.Insert(it)
	}
	sq := hyperdom.NewSphere([]float64{100, 100}, 3)
	bf := hyperdom.RKNNBruteForce(items, sq, 2, hyperdom.Hyperbola())
	se := hyperdom.RKNN(ss, sq, 2, hyperdom.Hyperbola())
	if len(bf.Items) != len(se.Items) {
		t.Fatalf("RKNN: index %d items, brute force %d", len(se.Items), len(bf.Items))
	}
	tk := hyperdom.TopKDominating(items, sq, 3, hyperdom.Hyperbola())
	if len(tk.Top) != 3 {
		t.Fatalf("TopKDominating returned %d items", len(tk.Top))
	}
	if len(tk.Top) > 1 && tk.Top[0].Score < tk.Top[1].Score {
		t.Error("top-k not sorted by score")
	}
}

func TestRTreeThroughFacade(t *testing.T) {
	items := randomItems(500, 3, 3)
	rt := hyperdom.NewRTree(3, 0)
	small := hyperdom.NewRTree(3, 8)
	for _, it := range items {
		rt.Insert(it)
		small.Insert(it)
	}
	sq := hyperdom.NewSphere([]float64{100, 100, 100}, 4)
	want := hyperdom.KNNBruteForce(items, sq, 5, hyperdom.Hyperbola())
	for _, tr := range []*hyperdom.RTree{rt, small} {
		got := hyperdom.KNNOverRTree(tr, sq, 5, hyperdom.Hyperbola(), hyperdom.BestFirst)
		if len(got.Items) != len(want.Items) {
			t.Fatalf("R-tree kNN: %d items, want %d", len(got.Items), len(want.Items))
		}
	}
}

func TestSSTreeSerializationThroughFacade(t *testing.T) {
	items := randomItems(300, 2, 4)
	tr := hyperdom.NewSSTree(2, 12)
	for _, it := range items {
		tr.Insert(it)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := hyperdom.ReadSSTree(&buf)
	if err != nil {
		t.Fatalf("ReadSSTree: %v", err)
	}
	if got.Len() != 300 {
		t.Errorf("restored Len=%d", got.Len())
	}
}

func TestCriterionConstructors(t *testing.T) {
	cases := []struct {
		c       hyperdom.Criterion
		name    string
		correct bool
		sound   bool
	}{
		{hyperdom.Hyperbola(), "Hyperbola", true, true},
		{hyperdom.MinMax(), "MinMax", true, false},
		{hyperdom.MBR(), "MBR", true, false},
		{hyperdom.GP(), "GP", true, false},
		{hyperdom.Trigonometric(), "Trigonometric", false, true},
		{hyperdom.Exact(), "Exact", true, true},
	}
	for _, tc := range cases {
		if tc.c.Name() != tc.name || tc.c.Correct() != tc.correct || tc.c.Sound() != tc.sound {
			t.Errorf("%s metadata wrong", tc.name)
		}
	}
}

func TestFindWitnessThroughFacade(t *testing.T) {
	sa := hyperdom.NewSphere([]float64{0, 0}, 1)
	sb := hyperdom.NewSphere([]float64{6, 0}, 1)
	sq := hyperdom.NewSphere([]float64{-1, 0}, 3.5) // reaches past the boundary
	w := hyperdom.FindWitness(sa, sb, sq, 0)
	if w == nil {
		t.Fatal("no witness for a clearly non-dominant instance")
	}
	if w.Margin > 0 {
		t.Errorf("witness margin %v > 0", w.Margin)
	}
	if hyperdom.Dominates(sa, sb, sq) {
		t.Error("witness contradicts Dominates")
	}
}

func TestPreparePairThroughFacade(t *testing.T) {
	sa := hyperdom.NewSphere([]float64{0, 0, 0}, 1)
	sb := hyperdom.NewSphere([]float64{9, 0, 0}, 1)
	pp := hyperdom.PreparePair(sa, sb)
	queries := []hyperdom.Sphere{
		hyperdom.NewSphere([]float64{-4, 0, 0}, 2),
		hyperdom.NewSphere([]float64{-4, 0, 0}, 8),
		hyperdom.Point([]float64{4.5, 1, -2}),
		hyperdom.NewSphere([]float64{12, 3, 0}, 0.5),
	}
	for _, sq := range queries {
		if got, want := pp.Dominates(sq), hyperdom.Dominates(sa, sb, sq); got != want {
			t.Errorf("PreparePair(%v, %v).Dominates(%v) = %v, Dominates = %v", sa, sb, sq, got, want)
		}
	}
	pp.Reset(sb, sa) // swapped roles: reuse without re-preparing
	for _, sq := range queries {
		if got, want := pp.Dominates(sq), hyperdom.Dominates(sb, sa, sq); got != want {
			t.Errorf("after Reset: Dominates(%v) = %v, want %v", sq, got, want)
		}
	}
}
