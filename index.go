package hyperdom

import (
	"hyperdom/internal/dominance"
	"hyperdom/internal/knn"
	"hyperdom/internal/mtree"
	"hyperdom/internal/ranking"
	"hyperdom/internal/rknn"
	"hyperdom/internal/rtree"
	"hyperdom/internal/sstree"
	"hyperdom/internal/topk"
	"hyperdom/internal/tree"
	"hyperdom/internal/workload"
)

// SSTree is an SS-tree index over hyperspheres (White & Jain, ICDE 1996),
// the index the paper's kNN experiments run on. It has no file format of
// its own: the one on-disk form of a tree is the packed snapshot a
// ShardedIndex writes with SaveDir and OpenSharded serves again.
type SSTree = sstree.Tree

// NewSSTree returns an empty SS-tree for dim-dimensional spheres. maxFill
// ≤ 0 selects the default node capacity.
func NewSSTree(dim, maxFill int) *SSTree {
	return sstree.New(dim, tree.WithMaxFill(maxFill))
}

// MTree is an M-tree index over hyperspheres (Ciaccia, Patella & Zezula,
// VLDB 1997), interchangeable with the SS-tree for all searches. It is
// searched by pointer walk only: unlike the SS-tree it has no Freeze.
type MTree = mtree.Tree

// NewMTree returns an empty M-tree for dim-dimensional spheres. maxFill
// ≤ 0 selects the default node capacity.
func NewMTree(dim, maxFill int) *MTree {
	return mtree.New(dim, tree.WithMaxFill(maxFill))
}

// RTree is a Guttman R-tree over hypersphere items: the rectangle-bounded
// baseline the sphere-tree literature (and this paper's introduction)
// compares against. It answers the same searches as the sphere trees, by
// pointer walk only: unlike the SS-tree it has no Freeze.
type RTree = rtree.Tree

// NewRTree returns an empty R-tree for dim-dimensional sphere items.
// maxFill ≤ 0 selects the default node capacity.
func NewRTree(dim, maxFill int) *RTree {
	return rtree.New(dim, tree.WithMaxFill(maxFill))
}

// SearchStrategy selects the index traversal for KNN: depth-first
// (Roussopoulos et al.) or best-first (Hjaltason & Samet).
type SearchStrategy = knn.Algorithm

// The two traversal strategies of the paper's Section 7.2.
const (
	DepthFirst SearchStrategy = knn.DF
	BestFirst  SearchStrategy = knn.HS
)

// KNNResult is the answer of a kNN query.
type KNNResult = knn.Result

// KNN answers the k-nearest-neighbour query of the paper's Definition 2
// over an SS-tree: it returns every indexed sphere that is not dominated,
// with respect to the query sphere sq, by the sphere with the k-th
// smallest MaxDist to sq. With the Hyperbola criterion the answer is
// exact; with another correct criterion it is a superset. It walks the
// pointer tree, the Section 6 reference; the packed form that is served is
// a ShardedIndex (BuildSharded).
func KNN(t *SSTree, sq Sphere, k int, crit Criterion, strategy SearchStrategy) KNNResult {
	return knn.Search(knn.WrapSSTree(t), sq, k, crit, strategy)
}

// KNNOverMTree is KNN running over an M-tree.
func KNNOverMTree(t *MTree, sq Sphere, k int, crit Criterion, strategy SearchStrategy) KNNResult {
	return knn.Search(knn.WrapMTree(t), sq, k, crit, strategy)
}

// KNNOverRTree is KNN running over the R-tree baseline.
func KNNOverRTree(t *RTree, sq Sphere, k int, crit Criterion, strategy SearchStrategy) KNNResult {
	return knn.Search(knn.WrapRTree(t), sq, k, crit, strategy)
}

// KNNBruteForce evaluates the kNN query by scanning items — the ground
// truth the paper measures precision against when crit is Hyperbola() or
// Exact().
func KNNBruteForce(items []Item, sq Sphere, k int, crit Criterion) KNNResult {
	return knn.BruteForce(items, sq, k, crit)
}

// KNNBatch answers many kNN queries over one SS-tree concurrently and
// returns results in query order: KNN per query, run on up to workers
// goroutines started for the call (workers ≤ 0 selects GOMAXPROCS). A query
// that panics (one of the wrong dimension, say) makes KNNBatch panic with
// the same value on the caller's goroutine, where it can be recovered.
func KNNBatch(t *SSTree, queries []Sphere, k int, crit Criterion, strategy SearchStrategy, workers int) []KNNResult {
	return workload.KNNBatch(knn.WrapSSTree(t), queries, k, workers, crit, strategy)
}

// RKNNResult is the answer of a reverse-kNN query.
type RKNNResult = rknn.Result

// RKNN answers the reverse k-nearest-neighbour query over an SS-tree: the
// indexed spheres S for which fewer than k other objects provably dominate
// sq with respect to S.
func RKNN(t *SSTree, sq Sphere, k int, crit Criterion) RKNNResult {
	return rknn.Search(t, sq, k, crit)
}

// RKNNBruteForce evaluates the reverse-kNN query by scanning all pairs.
func RKNNBruteForce(items []Item, sq Sphere, k int, crit Criterion) RKNNResult {
	return rknn.BruteForce(items, sq, k, crit)
}

// RankResult is the answer of an inverse ranking query.
type RankResult = ranking.Result

// RankInterval is an inclusive 1-based range of attainable ranks.
type RankInterval = ranking.Interval

// InverseRank computes the ranks the query object can take among the
// items, ordered by distance from the anchor sphere's vantage: objects
// that provably dominate the query rank before it, objects it provably
// dominates rank after it, everything else is undecided. With Hyperbola()
// or Exact() the interval is tight.
func InverseRank(items []Item, query, anchor Sphere, crit Criterion) RankResult {
	return ranking.Rank(items, query, anchor, crit)
}

// TopKDominatingResult is the answer of a top-k dominating query.
type TopKDominatingResult = topk.Result

// TopKDominating ranks items by how many other items they dominate with
// respect to sq and returns the k highest scorers.
func TopKDominating(items []Item, sq Sphere, k int, crit Criterion) TopKDominatingResult {
	return topk.Query(items, sq, k, crit)
}

// FindWitness searches for a certificate that sa does NOT dominate sb wrt
// sq: a point q ∈ sq whose distance margin is non-positive. A non-nil
// result is a proof of non-dominance; nil proves nothing (the search is
// randomized). samples ≤ 0 selects a default budget.
func FindWitness(sa, sb, sq Sphere, samples int) *dominance.Witness {
	if samples <= 0 {
		samples = 512
	}
	return dominance.FindWitness(sa, sb, sq, samples, nil)
}

// Witness is a certificate of non-dominance returned by FindWitness.
type Witness = dominance.Witness

// DominanceHorizon returns the supremum time t* ∈ [0, tMax] up to which sa
// keeps dominating sb wrt sq while all three radii grow linearly
// (rx(t) = rx + vx·t, velocities ≥ 0) — the paper's "radii change over
// time" future-work direction. It returns 0 when dominance already fails
// at t = 0 and tMax when it survives the whole window.
func DominanceHorizon(sa, sb, sq Sphere, va, vb, vq, tMax float64) float64 {
	return dominance.Horizon(sa, sb, sq, va, vb, vq, tMax)
}
