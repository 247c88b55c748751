package knn

import (
	"math/bits"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
)

// Candidate is one surviving entry of a kNN traversal: a reference to the
// stored item plus its cached MaxDist/MinDist to the query, in exactly the
// arithmetic every search path uses (so merged orderings are bit-identical).
// It is 24 bytes — the heap sifts, the buffer appends, the final filter's
// compaction and its sort all move candidates, never items. Item points into
// the leaf's own item slice (packed.Tree.LeafItems, IndexNode.NodeItems) and
// is valid until that index is mutated or closed.
type Candidate struct {
	Item    *Item
	MaxDist float64
	MinDist float64
}

// candLess reports whether a sorts before b in ascending (MaxDist, ID) order
// — the order that defines Sk and the result order of Definition 2 answers —
// in a form the compiler inlines into the heap and the sort. The item behind
// the pointer is only loaded on a MaxDist tie.
func candLess(a, b *Candidate) bool {
	return a.MaxDist < b.MaxDist || (!(a.MaxDist > b.MaxDist) && a.Item.ID < b.Item.ID)
}

// CompareCandidates orders candidates by ascending (MaxDist, ID): candLess
// as a three-way comparison.
func CompareCandidates(a, b Candidate) int {
	switch {
	case candLess(&a, &b):
		return -1
	case candLess(&b, &a):
		return 1
	}
	return 0
}

// sortCandidates sorts es ascending by CompareCandidates, in place: a
// median-of-three quicksort that finishes short runs by insertion and falls
// back to heapsort when the recursion budget runs out, so no input is
// quadratic. Hand-written because slices.SortFunc calls the comparison
// through a func value and heapsort alone moves each candidate log n times:
// at ~850 survivors per fat request either costs about 3× this (47 and 52
// against 16 µs).
func sortCandidates(es []Candidate) {
	quickCandidates(es, 2*bits.Len(uint(len(es))))
}

func quickCandidates(es []Candidate, budget int) {
	for len(es) > 12 {
		if budget == 0 {
			heapCandidates(es)
			return
		}
		budget--
		// Median of first, middle and last goes to the end as the pivot.
		m, hi := len(es)/2, len(es)-1
		if candLess(&es[m], &es[0]) {
			es[m], es[0] = es[0], es[m]
		}
		if candLess(&es[hi], &es[m]) {
			es[hi], es[m] = es[m], es[hi]
			if candLess(&es[m], &es[0]) {
				es[m], es[0] = es[0], es[m]
			}
		}
		es[m], es[hi] = es[hi], es[m]
		pivot := es[hi]
		p := 0
		for i := 0; i < hi; i++ {
			if candLess(&es[i], &pivot) {
				es[i], es[p] = es[p], es[i]
				p++
			}
		}
		es[p], es[hi] = es[hi], es[p]
		// Recurse into the smaller side, loop on the larger.
		if p < len(es)-p-1 {
			quickCandidates(es[:p], budget)
			es = es[p+1:]
		} else {
			quickCandidates(es[p+1:], budget)
			es = es[:p]
		}
	}
	for i := 1; i < len(es); i++ {
		c := es[i]
		j := i
		for ; j > 0 && candLess(&c, &es[j-1]); j-- {
			es[j] = es[j-1]
		}
		es[j] = c
	}
}

// siftDownCandidates restores the max-heap order of es below slot i.
func siftDownCandidates(es []Candidate, i int) {
	for {
		ch := 2*i + 1
		if ch >= len(es) {
			return
		}
		if ch+1 < len(es) && candLess(&es[ch], &es[ch+1]) {
			ch++
		}
		if !candLess(&es[i], &es[ch]) {
			return
		}
		es[i], es[ch] = es[ch], es[i]
		i = ch
	}
}

func heapCandidates(es []Candidate) {
	for i := len(es)/2 - 1; i >= 0; i-- {
		siftDownCandidates(es, i)
	}
	for n := len(es) - 1; n > 0; n-- {
		es[0], es[n] = es[n], es[0]
		siftDownCandidates(es[:n], 0)
	}
}

// TopK keeps the k smallest candidates offered so far, by
// CompareCandidates, as a max-heap: once Full, Kth is the running Sk. The
// zero value needs a Reset; storage grows with the candidates actually
// held, never with k. Slots past the held candidates are always zero, so a
// pooled TopK retains nothing once Reset.
type TopK struct {
	k  int
	es []Candidate
}

// Reset empties h for a new selection of size k, keeping its storage and
// dropping the references it held.
func (h *TopK) Reset(k int) { h.k, h.es = k, clearLen(h.es) }

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
			if !candLess(&es[p], &es[i]) {
				break
			}
			es[p], es[i] = es[i], es[p]
			i = p
		}
		return Candidate{}, false
	}
	if !candLess(&c, &es[0]) {
		return c, true
	}
	out, es[0] = es[0], c
	siftDownCandidates(es, 0)
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
// themselves filter in place (finish). The returned candidates reference the
// index's stored items rather than copying them: they are valid until the
// index is mutated or closed. The last parameter took the
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
		cs.TraceID = sc.flushObs(idx.substrate(), algo, k, start, &cs.Stats, nil)
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
	sortCandidates(top)
	out := make([]Candidate, len(top)+len(l.buf))
	copy(out[copy(out, top):], l.buf)
	return out
}
