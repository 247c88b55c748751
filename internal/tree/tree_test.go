package tree_test

import (
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/mtree"
	"hyperdom/internal/obs"
	"hyperdom/internal/rtree"
	"hyperdom/internal/sstree"
	"hyperdom/internal/tree"
)

// substrates is the table the skeleton's tests run over: the one tree under
// each of its three policies.
var substrates = []struct {
	name string
	new  func(dim int, opts ...tree.Option) *tree.Tree
}{
	{"sstree", func(dim int, opts ...tree.Option) *tree.Tree { return &sstree.New(dim, opts...).Tree }},
	{"mtree", func(dim int, opts ...tree.Option) *tree.Tree { return &mtree.New(dim, opts...).Tree }},
	{"rtree", func(dim int, opts ...tree.Option) *tree.Tree { return &rtree.New(dim, opts...).Tree }},
}

func randItem(rng *rand.Rand, d, id int) tree.Item {
	c := make([]float64, d)
	for i := range c {
		c[i] = rng.NormFloat64() * 25
	}
	return tree.Item{Sphere: geom.NewSphere(c, rng.Float64()*3), ID: id}
}

// TestCursorTraversal walks each substrate through the read-only cursor and
// verifies counts, the item total and — through the bound the cursor shows,
// a sphere or a rectangle — that every item lies inside its leaf's bound.
func TestCursorTraversal(t *testing.T) {
	for si, s := range substrates {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(81 + si)))
			tr := s.new(3, tree.WithMaxFill(8))
			for i := 0; i < 700; i++ {
				tr.Insert(randItem(rng, 3, i))
			}
			if tr.Dim() != 3 {
				t.Errorf("Dim=%d", tr.Dim())
			}
			root, ok := tr.Root()
			if !ok {
				t.Fatal("no root")
			}
			if root.Count() != tr.Len() {
				t.Errorf("root Count=%d, Len=%d", root.Count(), tr.Len())
			}
			inside := func(n tree.Cursor, it tree.Item) bool {
				if tr.Substrate() != tree.RTree {
					cover := n.Sphere()
					return geom.Sphere{Center: cover.Center, Radius: cover.Radius * (1 + 1e-9)}.ContainsSphere(it.Sphere)
				}
				rect, mbr := n.Rect(), it.Sphere.MBR()
				for j := range mbr.Lo {
					if mbr.Lo[j] < rect.Lo[j]-1e-9 || mbr.Hi[j] > rect.Hi[j]+1e-9 {
						return false
					}
				}
				return true
			}
			total := 0
			var walk func(n tree.Cursor)
			walk = func(n tree.Cursor) {
				if n.IsLeaf() {
					total += len(n.Items())
					for _, it := range n.Items() {
						if !inside(n, it) {
							t.Fatalf("item %d escapes its leaf's bound via cursor view", it.ID)
						}
						if n.MinDist(it.Sphere) != 0 {
							t.Fatalf("item %d at MinDist %g from its own leaf", it.ID, n.MinDist(it.Sphere))
						}
					}
					return
				}
				kids := n.Children()
				if len(kids) == 0 || len(kids) != n.NumChildren() {
					t.Fatalf("internal node with %d children, NumChildren=%d", len(kids), n.NumChildren())
				}
				sum := 0
				for i, c := range kids {
					if c != n.Child(i) {
						t.Fatal("Children and Child disagree")
					}
					sum += c.Count()
					walk(c)
				}
				if sum != n.Count() {
					t.Fatalf("node Count=%d but children sum to %d", n.Count(), sum)
				}
			}
			walk(root)
			if total != tr.Len() {
				t.Errorf("cursor walk saw %d items, Len=%d", total, tr.Len())
			}
		})
	}
}

// TestDeleteReinsertsAreNotInserts pins what a leaf-dissolving delete does
// to the books: the orphans go back through the internal path, so they count
// as reinserts only, and Len drops by exactly the deleted item.
func TestDeleteReinsertsAreNotInserts(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	const n = 400
	for si, s := range substrates {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(91 + si)))
			before := obs.Snapshot()
			delta := func(name string) uint64 { return obs.Snapshot()[s.name+"."+name] - before[s.name+"."+name] }
			tr := s.new(3, tree.WithMaxFill(6))
			items := make([]tree.Item, n)
			for i := range items {
				items[i] = randItem(rng, 3, i)
				tr.Insert(items[i])
			}
			// Delete until a leaf dissolves; with min fill 2 of 6 a handful of
			// deletes is enough.
			deleted := 0
			for delta("reinserts") == 0 {
				if deleted == n {
					t.Fatal("emptied the tree without dissolving a leaf")
				}
				if !tr.Delete(items[deleted]) {
					t.Fatalf("delete of live item %d failed", deleted)
				}
				deleted++
			}
			if got := delta("inserts"); got != n {
				t.Errorf("inserts = %d after %d Inserts and %d reinserted orphans, want %d",
					got, n, delta("reinserts"), n)
			}
			if got := delta("deletes"); got != uint64(deleted) {
				t.Errorf("deletes = %d, want %d", got, deleted)
			}
			if tr.Len() != n-deleted {
				t.Errorf("Len = %d, want %d", tr.Len(), n-deleted)
			}
			if msg := tr.CheckInvariants(); msg != "" {
				t.Errorf("invariants: %s", msg)
			}
		})
	}
}

// FuzzTreeOps decodes the fuzz input into a sequence of insert, delete and
// range-search operations, runs it against every substrate beside a slice
// oracle, and checks the structural invariants after the batch: the classic
// stateful-fuzzing harness for the index.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 251, 252})
	f.Add([]byte{10, 10, 10, 10})
	f.Add([]byte{})
	f.Add([]byte{1, 9, 9, 2, 9, 9, 3, 9, 9, 4, 9, 9, 5, 9, 9, 190, 9, 9, 230, 0, 0, 230, 0, 0, 190, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		for _, s := range substrates {
			tr := s.new(2, tree.WithMaxFill(4)) // tiny fanout: maximum structural churn
			var live []tree.Item
			next := 0
			for i := 0; i+2 < len(data); i += 3 {
				op, bx, by := data[i], data[i+1], data[i+2]
				sphere := geom.NewSphere([]float64{float64(bx), float64(by)}, float64(op%16))
				switch {
				case op < 180 || len(live) == 0:
					it := tree.Item{Sphere: sphere, ID: next}
					next++
					tr.Insert(it)
					live = append(live, it)
				case op < 220:
					want := map[int]bool{}
					for _, it := range live {
						if geom.Overlap(it.Sphere, sphere) {
							want[it.ID] = true
						}
					}
					got := tr.RangeSearch(sphere)
					for _, it := range got {
						if !want[it.ID] {
							t.Fatalf("%s: range search returned item %d, which does not overlap the query", s.name, it.ID)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("%s: range search found %d items, oracle %d", s.name, len(got), len(want))
					}
				default:
					victim := int(bx) % len(live)
					if !tr.Delete(live[victim]) {
						t.Fatalf("%s: delete of live item %d failed", s.name, live[victim].ID)
					}
					if tr.Delete(live[victim]) {
						t.Fatalf("%s: item %d deleted twice", s.name, live[victim].ID)
					}
					live = append(live[:victim], live[victim+1:]...)
				}
			}
			if tr.Len() != len(live) {
				t.Fatalf("%s: Len=%d, live=%d", s.name, tr.Len(), len(live))
			}
			if msg := tr.CheckInvariants(); msg != "" {
				t.Fatalf("%s: invariant violated: %s", s.name, msg)
			}
			seen := 0
			tr.Visit(func(tree.Item) bool { seen++; return true })
			if seen != len(live) {
				t.Fatalf("%s: Visit saw %d items, live=%d", s.name, seen, len(live))
			}
			// Every live item must be findable by a range query at its center.
			for _, it := range live[:min(len(live), 16)] {
				found := false
				for _, got := range tr.RangeSearch(it.Sphere) {
					found = found || got.ID == it.ID
				}
				if !found {
					t.Fatalf("%s: live item %d not found by range search", s.name, it.ID)
				}
			}
		}
	})
}
