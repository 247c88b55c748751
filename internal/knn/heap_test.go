package knn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// heapKeySets are the key sequences TestDistHeap pushes: random keys, heavy
// ties, and both infinities (an empty best-known list has distK = +Inf, and
// a root MinDist is never negative but the heap must not care).
func heapKeySets() map[string][]float64 {
	rng := rand.New(rand.NewSource(9001))
	random := make([]float64, 500)
	for i := range random {
		random[i] = rng.NormFloat64() * 100
	}
	ties := make([]float64, 300)
	for i := range ties {
		ties[i] = float64(rng.Intn(4))
	}
	return map[string][]float64{
		"random":     random,
		"ties":       ties,
		"infinities": {3, math.Inf(1), -1, math.Inf(-1), math.Inf(1), 0, math.Inf(-1), 3},
		"single":     {42},
		"ascending":  {1, 2, 3, 4, 5, 6, 7, 8, 9},
		"descending": {9, 8, 7, 6, 5, 4, 3, 2, 1},
	}
}

// checkDistHeap pushes keys (node(i) riding with keys[i]) with pops
// interleaved, then drains, and checks every pop returns the smallest key
// held — so the pop order is that of a sorted copy — together with the
// node pushed under it, the pushes/pops/grown tallies, and that
// once drained no slot of the backing array — over its full capacity —
// still holds a node: the retention a pooled scratch must not have.
func checkDistHeap[N comparable](t *testing.T, keys []float64, node func(i int) N) {
	t.Helper()
	var h distHeap[N]
	var held []float64 // reference multiset of keys in the heap
	byNode := make(map[N]float64, len(keys))
	var grown, pops uint64
	pop := func() {
		t.Helper()
		n, d := h.pop()
		pops++
		i := slices.Index(held, slices.Min(held))
		if d != held[i] {
			t.Fatalf("pop %d returned key %v, smallest held is %v", pops, d, held[i])
		}
		if want, ok := byNode[n]; !ok || want != d {
			t.Fatalf("pop %d returned node %v with key %v, pushed under %v", pops, n, d, want)
		}
		delete(byNode, n)
		held = slices.Delete(held, i, i+1)
	}
	for i, k := range keys {
		if len(h.es) == cap(h.es) {
			grown++
		}
		n := node(i)
		h.push(n, k)
		held = append(held, k)
		byNode[n] = k
		if i%3 == 2 {
			pop()
		}
	}
	for h.len() > 0 {
		pop()
	}
	if h.pushes != uint64(len(keys)) || h.pops != pops || pops != uint64(len(keys)) || h.grown != grown {
		t.Fatalf("tallies pushes=%d pops=%d grown=%d, want %d/%d/%d", h.pushes, h.pops, h.grown, len(keys), pops, grown)
	}
	for i, e := range h.es[:cap(h.es)] {
		if e != (distEntry[N]{}) {
			t.Fatalf("slot %d of the drained heap still holds %+v", i, e)
		}
	}
}

// heapTestNode is a distinct non-nil IndexNode per index; the embedded nil
// interface is never called.
type heapTestNode struct {
	IndexNode
	i int
}

func TestDistHeap(t *testing.T) {
	for name, keys := range heapKeySets() {
		t.Run("IndexNode/"+name, func(t *testing.T) {
			checkDistHeap(t, keys, func(i int) IndexNode { return &heapTestNode{i: i} })
		})
		t.Run("int32/"+name, func(t *testing.T) {
			checkDistHeap(t, keys, func(i int) int32 { return int32(i + 1) })
		})
	}
}
