package knn

import (
	"cmp"
	"slices"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
)

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

// CandidateSet is what one traversal kept, plus its work Stats. The first
// min(K, len) Candidates are the k smallest in ascending (MaxDist, ID) order
// — Candidates[K-1] is Sk — and the remainder is unordered. Every indexed
// item is either present or was discarded by Case 3, i.e. is provably
// dominated by Sk.
type CandidateSet struct {
	K          int
	Stats      Stats
	Candidates []Candidate

	// CoarsePrunes counts the leaf items the quantized narrow tier settled
	// in this traversal; 0 when quant mode is off or the index is not
	// frozen. Deliberately NOT part of Stats — Stats equality between the
	// packed and pointer paths is test-locked, and this depends on the
	// quant mode.
	CoarsePrunes uint64
	// TraceID links to this traversal's retained execution trace in
	// /debug/trace when it was sampled, 0 otherwise.
	TraceID uint64
}

// SearchCandidates runs the kNN traversal and returns what it kept instead
// of the final Definition 2 answer: everything Lemma 9 did not discard,
// before the criterion has run. The benchmark harness and cmd/benchkernel
// use it to count and replay the final filter's input; the searches
// themselves filter in place (finish). The last parameter took the
// cross-shard pushdown bound of a scatter-gather that no longer exists; it
// is ignored, and stays only because the frozen harness (bench/) calls this
// function with a nil there.
func SearchCandidates(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm, _ *struct{}) CandidateSet {
	sc := getScratch()
	defer putScratch(sc)
	return sc.searchCandidates(idx, sq, k, crit, algo)
}

func (sc *scratch) searchCandidates(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm) CandidateSet {
	cs := CandidateSet{K: k}
	l, start, ok := sc.traverse(idx, sq, k, crit, algo, &cs.Stats)
	if !ok {
		return cs
	}
	// Read the coarse-prune tally before flushObs zeroes it.
	cs.CoarsePrunes = sc.qItemPrunes
	cs.Candidates = l.collect()
	if obs.On() {
		cs.TraceID = sc.flushObs(substrateOf(idx), algo, k, start, &cs.Stats)
	}
	return cs
}

// collect returns everything the traversal kept — the criterion has not
// run — in the CandidateSet layout: the k smallest sorted, the rest as
// buffered. The mirror of finish() for SearchCandidates.
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
