package knn

import (
	"cmp"
	"math"
	"slices"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
)

// The candidate-search entry points of the scatter-gather layer (DESIGN.md
// §13). A shard cannot apply Definition 2's final filter itself: the filter
// runs against the GLOBAL Sk, which no single shard knows, and dominance is
// not monotone in MaxDist — an item dominated by a shard-local Sk need not
// be dominated by the (closer) global one. So per-shard searches return the
// raw candidate stream — everything the traversal did not prove dominated
// by the final global Sk via Lemma 9 — and the merge layer computes Sk over
// the union and applies the one final filter.

// Candidate is one surviving entry of a kNN traversal: the item plus its
// cached MaxDist/MinDist to the query, in exactly the arithmetic every
// search path uses (so merged orderings are bit-identical).
type Candidate struct {
	Item    Item
	MaxDist float64
	MinDist float64
}

// CompareCandidates orders candidates by ascending (MaxDist, ID) — the
// order that defines Sk and the result order of Definition 2 answers.
func CompareCandidates(a, b Candidate) int {
	switch {
	case a.MaxDist < b.MaxDist:
		return -1
	case a.MaxDist > b.MaxDist:
		return 1
	}
	return cmp.Compare(a.Item.ID, b.Item.ID)
}

// TopK keeps the k smallest candidates offered so far, by
// CompareCandidates, as a max-heap: once Full, Kth is the running Sk. The
// zero value needs a Reset; storage grows with the candidates actually
// held, never with k.
type TopK struct {
	k  int
	es []Candidate
}

// NewTopK returns a TopK for the k smallest of at most n candidates, with
// its storage allocated up front.
func NewTopK(k, n int) *TopK {
	return &TopK{k: k, es: make([]Candidate, 0, min(k, n))}
}

// Reset empties h for a new selection of size k, keeping its storage.
func (h *TopK) Reset(k int) { h.k, h.es = k, h.es[:0] }

// Full reports whether k candidates are held.
func (h *TopK) Full() bool { return len(h.es) >= h.k }

// Kth returns the largest candidate held — the k-th smallest offered once
// Full. Only valid on a non-empty TopK.
func (h *TopK) Kth() Candidate { return h.es[0] }

// Offer considers c for the k smallest and returns the candidate that
// thereby falls out of them — c itself, or the old k-th that c displaced.
// spilled is false while fewer than k were held (c simply joined).
func (h *TopK) Offer(c Candidate) (out Candidate, spilled bool) {
	es := h.es
	if len(es) < h.k {
		es = append(es, c)
		h.es = es
		for i := len(es) - 1; i > 0; {
			p := (i - 1) / 2
			if CompareCandidates(es[p], es[i]) >= 0 {
				break
			}
			es[p], es[i] = es[i], es[p]
			i = p
		}
		return Candidate{}, false
	}
	if CompareCandidates(c, es[0]) >= 0 {
		return c, true
	}
	out, es[0] = es[0], c
	for i := 0; ; {
		ch := 2*i + 1
		if ch >= len(es) {
			break
		}
		if ch+1 < len(es) && CompareCandidates(es[ch], es[ch+1]) < 0 {
			ch++
		}
		if CompareCandidates(es[i], es[ch]) >= 0 {
			break
		}
		es[i], es[ch] = es[ch], es[i]
		i = ch
	}
	return out, true
}

// CandidateSet is the answer of one per-shard candidate search, plus the
// traversal's work Stats. The first min(K, len) Candidates are the k
// smallest in ascending (MaxDist, ID) order — Candidates[K-1] is the local
// Sk — and the remainder is unordered: the merge layer selects the global
// Sk from the sorted prefixes, filters, and sorts only the survivors.
//
// Invariants the merge layer relies on:
//   - every indexed item is either present or was pruned under a bound that
//     is ≥ the final global distK (so it is provably dominated by the final
//     global Sk and provably outside the global top-k);
//   - in particular every item whose MaxDist is among the k smallest
//     globally is in some set's sorted prefix, so the global Sk is
//     computable from the prefixes alone.
type CandidateSet struct {
	K          int
	Stats      Stats
	Candidates []Candidate

	// Per-shard request telemetry (ISSUE 8). Scalar by-products of the
	// traversal the scatter-gather layer surfaces in EXPLAIN output; they
	// ride in the (stack-allocated) CandidateSet so recording them costs the
	// search path nothing. Deliberately NOT part of Stats — Stats equality
	// between the packed and pointer paths is test-locked, and these fields
	// depend on quant mode and cross-shard timing.

	// CoarsePrunes counts quantized narrow-tier settlements (node + leaf)
	// this traversal made; 0 when quant mode is off or the index is not
	// frozen.
	CoarsePrunes uint64
	// BoundObserved is the external distK pushdown bound as of this
	// traversal's completion — what its node prunes could cut against.
	// +Inf when ext was nil or never tightened.
	BoundObserved float64
	// BoundPublished is this traversal's own final local distK as last
	// published into ext (Lemma 9: a k-th-smallest over a subset, hence
	// ≥ the final global distK). +Inf when fewer than k items were seen.
	BoundPublished float64
	// TraceID links to this traversal's retained execution trace in
	// /debug/trace when it was sampled, 0 otherwise.
	TraceID uint64
}

// SearchCandidates runs the kNN traversal and returns the surviving
// candidate stream instead of the final Definition 2 answer. ext, when
// non-nil, is the scatter-gather distK pushdown bound: the traversal reads
// it at every node-prune decision (pop/visit time) and publishes its own
// running local distK into it. Pass nil for a standalone candidate search.
func SearchCandidates(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm, ext *Bound) CandidateSet {
	sc := getScratch()
	defer putScratch(sc)
	return sc.searchCandidates(idx, sq, k, crit, algo, ext)
}

// SearchCandidates is the Searcher form of the package-level function; see
// Searcher.Search for the ownership contract.
func (s *Searcher) SearchCandidates(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm, ext *Bound) CandidateSet {
	return s.sc.searchCandidates(idx, sq, k, crit, algo, ext)
}

func (sc *scratch) searchCandidates(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm, ext *Bound) CandidateSet {
	cs := CandidateSet{K: k}
	cs.BoundObserved = math.Inf(1)
	cs.BoundPublished = math.Inf(1)
	l, start, ok := sc.traverse(idx, sq, k, crit, algo, ext, &cs.Stats)
	if !ok {
		return cs
	}
	// Request-telemetry scalars for the EXPLAIN layer: read the coarse-prune
	// tallies before flushObs zeroes them, and snapshot both sides of the
	// distK pushdown — the shard's own final local distK versus the shared
	// bound it could prune with.
	cs.CoarsePrunes = sc.qNodePrunes + sc.qItemPrunes
	cs.BoundPublished = l.distK()
	cs.Candidates = l.collect()
	if ext != nil {
		cs.BoundObserved = ext.Load()
	}
	if obs.On() {
		cs.TraceID = sc.flushObs(idx, algo, k, start, &cs.Stats)
	}
	return cs
}

// collect returns everything the traversal kept — the criterion has not
// run — in the CandidateSet layout: the k smallest sorted, the rest as
// buffered. The mirror of finish() for the scatter-gather path.
func (l *bestList) collect() []Candidate {
	top := l.top.es
	if len(top) == 0 {
		return nil
	}
	slices.SortFunc(top, CompareCandidates)
	out := make([]Candidate, len(top)+len(l.buf))
	copy(out[copy(out, top):], l.buf)
	return out
}
