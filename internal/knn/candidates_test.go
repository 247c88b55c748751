package knn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
)

// sortCandidates sorts es in place with the sort finish() and collect()
// use, on a fresh sorter.
func sortCandidates(es []Candidate) { new(candSorter).sort(es) }

// finalFilter applies Definition 2's final filter to a candidate set from
// the outside: Sk = k-th smallest (MaxDist, ID), keep every
// candidate Sk does not provably dominate.
func finalFilter(cs CandidateSet, sq geom.Sphere, crit dominance.Criterion) []Item {
	cands := cs.Candidates
	if len(cands) <= cs.K {
		out := make([]Item, len(cands))
		for i, c := range cands {
			out[i] = *c.Item
		}
		return out
	}
	sk := cands[cs.K-1].Item
	var out []Item
	for _, c := range cands {
		if crit.Dominates(sk.Sphere, c.Item.Sphere, sq) {
			continue
		}
		out = append(out, *c.Item)
	}
	return out
}

// TestSearchCandidatesRecoversAnswer locks the CandidateSet contract:
// applying the final Definition 2 filter to the raw candidates reproduces
// the Search answer exactly, for both traversals.
func TestSearchCandidatesRecoversAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	crit := dominance.Hyperbola{}
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(3)
		n := 1 + rng.Intn(400)
		items := randItems(rng, d, n, 4)
		idx := index(items, d)
		sq := randQuery(rng, d, 4)
		k := 1 + rng.Intn(12)
		for _, algo := range []Algorithm{DF, HS} {
			want := Search(idx, sq, k, crit, algo)
			cs := SearchCandidates(idx, sq, k, crit, algo, nil)
			got := finalFilter(cs, sq, crit)
			if !equalIDs(idsOf(want.Items), idsOf(got)) {
				t.Fatalf("trial %d %v: filtered candidates %v != answer %v",
					trial, algo, idsOf(got), idsOf(want.Items))
			}
			// The k smallest must lead in ascending (MaxDist, ID) order;
			// the remainder is unordered but all beyond the local Sk.
			for i := 1; i < len(cs.Candidates); i++ {
				if CompareCandidates(cs.Candidates[min(i, k)-1], cs.Candidates[i]) >= 0 {
					t.Fatalf("trial %d %v: candidate order violated at %d", trial, algo, i)
				}
			}
		}
	}
}

// TestSearchCandidatesStats pins that a candidate search performs
// exactly the traversal work of a plain Search (same Stats), since the two
// share one traversal and differ only in the answer pass.
func TestSearchCandidatesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	items := randItems(rng, 3, 500, 3)
	idx := index(items, 3)
	sq := randQuery(rng, 3, 3)
	for _, algo := range []Algorithm{DF, HS} {
		res := Search(idx, sq, 8, dominance.Hyperbola{}, algo)
		cs := SearchCandidates(idx, sq, 8, dominance.Hyperbola{}, algo, nil)
		// finish() runs extra final-filter DomChecks that collect() skips,
		// so compare the traversal-side fields only.
		if cs.Stats.NodesVisited != res.Stats.NodesVisited || cs.Stats.Items != res.Stats.Items {
			t.Fatalf("%v: candidate stats %+v diverge from search stats %+v", algo, cs.Stats, res.Stats)
		}
	}
}

func TestSearchCandidatesEmptyIndex(t *testing.T) {
	idx := index(nil, 2)
	cs := SearchCandidates(idx, randQuery(rand.New(rand.NewSource(1)), 2, 1), 3, dominance.Hyperbola{}, HS, nil)
	if len(cs.Candidates) != 0 || cs.K != 3 {
		t.Fatalf("empty index returned %+v", cs)
	}
}

func idsOf(items []Item) []int {
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Ints(ids)
	return ids
}

// BenchmarkSortCandidates times the candidate sort on random MaxDist keys
// at sizes around radixCut and at a fat_d10 answer's ~850, against
// insertion alone (below the cut) — the measurement radixCut comes from.
func BenchmarkSortCandidates(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	items := make([]Item, 1024)
	for i := range items {
		items[i].ID = i
	}
	for _, n := range []int{16, 24, 32, 48, 64, 96, 850} {
		in := make([]Candidate, n)
		for i := range in {
			in[i] = Candidate{Item: &items[rng.Intn(len(items))], MaxDist: 100 + 50*rng.Float64()}
		}
		es := make([]Candidate, n)
		var s candSorter
		b.Run(fmt.Sprintf("n=%d/radix", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(es, in)
				s.radix(es)
			}
		})
		if n <= 128 {
			b.Run(fmt.Sprintf("n=%d/insertion", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(es, in)
					insertionCandidates(es)
				}
			})
		}
	}
}

// FuzzSortCandidates checks the candidate sort against CompareCandidates
// order. Each candidate takes three bytes: a key class, a value and an ID
// (IDs repeat, so equal keys with equal IDs occur). The classes cover ±0,
// +Inf, subnormals, one MaxDist repeated (an equal-MaxDist run), keys an
// ulp apart, the float64 extremes and negatives; the seeds sit either side
// of radixCut and of the second radix pass.
func FuzzSortCandidates(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 2, radixCut - 1, radixCut, radixCut + 1, 3 * radixCut, 1000, 1025, 3000} {
		data := make([]byte, 3*n)
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{1, 0, 3, 0, 0, 3, 1, 0, 2, 0, 0, 1}) // −0 and +0, one ID out of order
	zeros := make([]byte, 3*(radixCut+20))            // only ±0 and subnormal keys, above the cut
	for i := 0; i < len(zeros); i += 3 {
		zeros[i], zeros[i+1], zeros[i+2] = []byte{0, 1, 3}[rng.Intn(3)], byte(rng.Intn(3)), byte(rng.Intn(256))
	}
	f.Add(zeros)
	f.Fuzz(func(t *testing.T, data []byte) {
		items := make([]Item, 256)
		for i := range items {
			items[i].ID = i
		}
		in := make([]Candidate, len(data)/3)
		for i := range in {
			class, v, id := data[3*i], float64(data[3*i+1]), data[3*i+2]
			var key float64
			switch class % 10 {
			case 0:
				key = 0
			case 1:
				key = math.Copysign(0, -1)
			case 2:
				key = math.Inf(1)
			case 3:
				key = v * 5e-324 // subnormal, or 0
			case 4:
				key = 100 + v/256
			case 5:
				key = 7.5 // one long equal-MaxDist run
			case 6:
				key = math.Nextafter(7.5, 8) // an ulp above the run
			case 7:
				key = math.MaxFloat64 / (v + 1)
			case 8:
				key = -v
			default:
				key = math.Float64frombits(binary.LittleEndian.Uint64(append(data[3*i:3*i+3:3*i+3], 0, 0, 0, 0, 0)) | 0x4000000000000000)
			}
			in[i] = Candidate{Item: &items[id], MaxDist: key}
		}
		got := slices.Clone(in)
		sortCandidates(got)
		want := slices.Clone(in)
		slices.SortStableFunc(want, CompareCandidates)
		for i := range got {
			if CompareCandidates(got[i], want[i]) != 0 {
				t.Fatalf("n=%d: position %d holds (MaxDist %v, ID %d), want (%v, %d)", len(in), i, got[i].MaxDist, got[i].Item.ID, want[i].MaxDist, want[i].Item.ID)
			}
		}
		// The sort permutes: every input candidate comes out exactly once.
		count := map[Candidate]int{}
		for _, c := range in {
			count[c]++
		}
		for _, c := range got {
			if count[c]--; count[c] < 0 {
				t.Fatalf("n=%d: candidate (%v, %d) came out more often than it went in", len(in), c.MaxDist, c.Item.ID)
			}
		}
	})
}
