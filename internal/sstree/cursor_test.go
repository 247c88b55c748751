package sstree

import (
	"math/rand"
	"testing"

	"hyperdom/internal/tree"
)

// TestCursorTraversal walks the tree through the read-only cursor API and
// cross-checks counts, leaf depth and item totals against Len.
func TestCursorTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	tr, _ := buildTree(t, rng, 3, 700, tree.WithMaxFill(8))
	root, ok := tr.Root()
	if !ok {
		t.Fatal("no root")
	}
	if root.Count() != tr.Len() {
		t.Errorf("root Count=%d, Len=%d", root.Count(), tr.Len())
	}
	total := 0
	var walk func(n tree.Cursor)
	walk = func(n tree.Cursor) {
		if n.IsLeaf() {
			total += len(n.Items())
			return
		}
		kids := n.Children()
		if len(kids) == 0 {
			t.Fatal("internal node without children")
		}
		sum := 0
		for _, c := range kids {
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
}
