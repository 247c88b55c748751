package sstree

import (
	"slices"

	"hyperdom/internal/tree"
)

// BulkLoad builds the tree from the whole item set at once with tree.Load,
// the bulk loader shard.Build fills every shard with: each level is cut into
// its children by recursive balanced cuts on the widest center dimension of
// each part, so nodes are compact in every coordinate, not slabs along one.
// It is several times faster than repeated Insert (BenchmarkBulkLoadVsInsert)
// and the tree it leaves serves better: over the serving benchmark's corpora
// (seed 1, HS, k = 10, one frozen SS-tree per shard, 1,000 queries) items and
// nodes per query, inserted → bulk-loaded, are 403 → 340 and 50 → 23 on
// thin_d4 (n = 100k, d = 4), 21,909 → 15,281 and 1,580 → 733 on scan_d10
// (100k, d = 10), 3,749 → 3,663 and 303 → 182 on mixed_snap (50k, d = 6),
// 9,948 → 9,989 and 641 → 452 on fat_d10 (10k, d = 10, every leaf within
// distK) — with identical answers.
//
// The tree must be empty; items are not retained (their slice may be
// reused), but the spheres inside them are shared, not copied.
func (t *Tree) BulkLoad(items []Item) {
	if t.Len() != 0 {
		panic("sstree: BulkLoad into a non-empty tree")
	}
	tree.Load(&t.Tree, slices.Clone(items))
}
