package knn

import (
	"math"
	"math/bits"
	"slices"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
)

// Candidate is one surviving entry of a kNN traversal: a reference to the
// stored item plus its cached MaxDist to the query, in exactly the
// arithmetic every search path uses (so merged orderings are bit-identical).
// It is 16 bytes — the heap sifts, the buffer appends, the final filter's
// compaction and its sort all move candidates, never items. Its MinDist is
// read once, for Case 3, before it is stored (offerDist), so it is not
// kept. Item points into the leaf's own item slice (packed.Tree.LeafItems,
// tree.Cursor.Items) and is valid until that index is mutated or closed.
type Candidate struct {
	Item    *Item
	MaxDist float64
}

// candLess reports whether a sorts before b in ascending (MaxDist, ID) order
// — the order that defines Sk and the result order of Definition 2 answers —
// in a form the compiler inlines into the heap and the sort. The item behind
// the pointer is only loaded on a MaxDist tie.
func candLess(a, b *Candidate) bool {
	return a.MaxDist < b.MaxDist || (!(a.MaxDist > b.MaxDist) && a.Item.ID < b.Item.ID)
}

// CompareCandidates orders candidates by ascending (MaxDist, ID): candLess
// as a three-way comparison, in the form slices.SortFunc takes.
func CompareCandidates(a, b Candidate) int {
	switch {
	case candLess(&a, &b):
		return -1
	case candLess(&b, &a):
		return 1
	}
	return 0
}

// radixCut is the size at and below which a sort is insertion alone:
// BenchmarkSortCandidates has insertion ahead of the radix passes up to
// about 40 candidates on random keys, and behind from 48.
const radixCut = 40

// radixDigit is the widest digit a radix pass sorts on: 2,048 buckets.
const radixDigit = 11

// candSorter sorts candidates ascending by (MaxDist, ID), in place. Up to
// radixCut it is an insertion sort. Above, it is an LSD radix sort on the
// leading bits of each key's offset from the smallest key — one pass of up
// to radixDigit bits, two past 1,024 candidates, so that there are at
// least twice as many buckets as candidates — then one insertion pass
// under candLess, which puts each bucket in (MaxDist, ID) order: the
// stable passes leave an equal-MaxDist run in input order, and the
// insertion orders it by ID. A bucket rarely holds more than a pair; past
// a budget of moves (one MaxDist repeated a thousand times is one bucket)
// the pass hands over to slices.SortFunc, so no input is quadratic. On
// 850 random candidates, a fat_d10 answer's size, it took 12–16 µs where
// the median-of-three quicksort it replaced took 24 (EXPERIMENTS.md). tmp,
// the passes' second buffer, holds candidates only during a sort.
type candSorter struct {
	tmp    []Candidate
	counts []uint32 // one histogram per pass
}

// radixKey maps MaxDist to a uint64 whose unsigned order is the float64
// order of non-NaN values: the sign bit set on non-negatives, every bit
// flipped on negatives. −0 keys sort just below +0; the insertion pass,
// under candLess, orders the two by ID like any equal MaxDist.
func radixKey(f float64) uint64 {
	b := math.Float64bits(f)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sort orders es by candLess.
func (s *candSorter) sort(es []Candidate) {
	if len(es) <= radixCut {
		insertionCandidates(es)
		return
	}
	s.radix(es)
}

// radix is sort's radix path, for any non-empty es.
func (s *candSorter) radix(es []Candidate) {
	lo, hi := radixKey(es[0].MaxDist), radixKey(es[0].MaxDist)
	for i := range es {
		k := radixKey(es[i].MaxDist)
		lo, hi = min(lo, k), max(hi, k)
	}
	// A digit of w bits gives at least 2n buckets, up to radixDigit bits;
	// past 1,024 candidates a second pass doubles the key bits.
	w := uint(min(bits.Len(uint(len(es)))+1, radixDigit))
	passes := 1
	if len(es) > 1<<(radixDigit-1) {
		passes = 2
	}
	shift := uint(max(bits.Len64(hi-lo)-passes*int(w), 0))
	digit := func(c *Candidate) uint64 { return (radixKey(c.MaxDist) - lo) >> shift }
	mask := uint64(1)<<w - 1

	if cap(s.counts) < passes<<w {
		s.counts = make([]uint32, 2<<radixDigit)
	}
	counts := s.counts[:passes<<w]
	clear(counts)
	for i := range es {
		d := digit(&es[i])
		counts[d&mask]++
		if passes == 2 {
			counts[1<<w+d>>w&mask]++
		}
	}
	if cap(s.tmp) < len(es) {
		s.tmp = make([]Candidate, len(es))
	}
	src, dst := es, s.tmp[:len(es)]
	for p := range passes {
		pos := counts[p<<w : (p+1)<<w]
		var sum uint32
		for b, n := range pos {
			pos[b] = sum
			sum += n
		}
		pw := uint(p) * w
		for i := range src {
			b := digit(&src[i]) >> pw & mask
			dst[pos[b]] = src[i]
			pos[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &es[0] {
		copy(es, src)
	}
	clear(s.tmp[:len(es)])

	// Each bucket is in input order; one insertion pass finishes them all,
	// moving only what shares a bucket out of order, and hands over to
	// pdqsort past its budget of moves.
	budget := 2*len(es) + radixCut*radixCut
	for i := 1; i < len(es); i++ {
		c := es[i]
		j := i
		for ; j > 0 && candLess(&c, &es[j-1]); j-- {
			es[j] = es[j-1]
		}
		es[j] = c
		if budget -= i - j; budget < 0 {
			slices.SortFunc(es, CompareCandidates)
			return
		}
	}
}

// insertionCandidates sorts a short es by candLess.
func insertionCandidates(es []Candidate) {
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

// TopK keeps the k smallest candidates offered so far, by ascending
// (MaxDist, ID), as a max-heap: once Full, Kth is the running Sk. The
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
	l, ok := sc.traverse(idx, sq, k, crit, algo, &cs.Stats)
	if !ok {
		return cs
	}
	// Read the coarse-prune tally before flushObs zeroes it.
	cs.CoarsePrunes = sc.qItemPrunes
	cs.Candidates = l.collect()
	sc.flushObs(&cs.Stats)
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
	l.sorter.sort(top)
	out := make([]Candidate, len(top)+len(l.buf))
	copy(out[copy(out, top):], l.buf)
	return out
}
