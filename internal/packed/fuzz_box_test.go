package packed

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
)

// FuzzBoxLowerBound locks the soundness of the second child bound (ISSUE
// 24): on arbitrary small sphere-bounded trees of 1–10 dimensions — NaN and
// ±Inf coordinates, negative, zero and infinite radii, magnitudes from
// 1e-150 to 1e150, whatever the fuzzer finds — the key ChildMinDists writes
// for a child entry, under every dk tried, is no larger than the exact
// geom.MinDist of any item beneath that entry. That is all a kNN walk needs
// of a pruning key (Lemma 9), so a box prune is then always a decision the
// exact path would have reached item by item.
//
// Every child sphere is given an infinite radius, which makes the sphere
// bound 0: the box pass runs on every entry and the key is its value alone.
func FuzzBoxLowerBound(f *testing.F) {
	f.Add([]byte{3, 4, 0})
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	// Non-finite and extreme-scale values at d = 1 and d = 3: the stream
	// feeds centers and radii alike, so each lands in both roles.
	for _, dimByte := range []byte{0, 2} {
		ext := []byte{dimByte, 7}
		for _, v := range []float64{
			math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 1e150, -1e150, 1e-150,
			1e300, 4e38, -4e38, math.MaxFloat64, 1, 0.5, -0.5, 2,
		} {
			ext = binary.LittleEndian.AppendUint64(ext, math.Float64bits(v))
		}
		f.Add(ext)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		dim := 1 + int(data[0])%10 // 1..10
		shape := int(data[1])
		data = data[2:]

		rng := rand.New(rand.NewSource(int64(len(data)) + int64(dim)*31 + int64(shape)))
		next := func() float64 {
			if len(data) >= 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				return v
			}
			return rng.NormFloat64() * 100
		}
		point := func() []float64 {
			c := make([]float64, dim)
			for j := range c {
				c[j] = next()
			}
			return c
		}

		// root → 1..2 mid nodes → 1..3 leaves each → 1..3 items each, so the
		// root's entries carry unions of unions. below[n] lists the items
		// under node n.
		b := NewBuilder(KindSphere, dim)
		below := map[int32][]geom.Item{}
		wide := func(ids []int32) ([][]float64, []float64) {
			centers, radii := make([][]float64, len(ids)), make([]float64, len(ids))
			for i := range ids {
				centers[i], radii[i] = make([]float64, dim), math.Inf(1)
			}
			return centers, radii
		}
		var mids, internals []int32
		id := 0
		for m := 0; m <= shape%2; m++ {
			var leaves []int32
			for l := 0; l <= (shape/2)%3; l++ {
				items := make([]geom.Item, 1+(shape/6+l+m)%3)
				for i := range items {
					items[i] = geom.Item{ID: id, Sphere: geom.Sphere{Center: point(), Radius: next()}}
					id++
				}
				leaf := b.Leaf(items)
				below[leaf] = items
				leaves = append(leaves, leaf)
			}
			c, r := wide(leaves)
			mid := b.InternalSphere(leaves, c, r)
			for _, leaf := range leaves {
				below[mid] = append(below[mid], below[leaf]...)
			}
			mids = append(mids, mid)
		}
		c, r := wide(mids)
		root := b.InternalSphere(mids, c, r)
		internals = append(mids, root)
		pt := b.FinishSphere(root, make([]float64, dim), math.Inf(1))

		q := geom.Sphere{Center: point(), Radius: next()}
		// dk ≥ 0: unbounded (raise only), zero, one drawn from the stream, and
		// the exact MinDist of an item — where the reject boundary cuts.
		dks := []float64{math.Inf(1), 0, math.Abs(next()), geom.MinDist(below[mids[0]][0].Sphere, q)}
		dst := make([]float64, 3)
		// The query radius as drawn (negative and NaN take the sphere bound
		// alone) and its magnitude (the domain the box pass runs in).
		for _, q := range []geom.Sphere{q, {Center: q.Center, Radius: math.Abs(q.Radius)}} {
			for _, n := range internals {
				kids := pt.Children(n)
				for _, dk := range dks {
					if math.IsNaN(dk) {
						continue
					}
					pt.ChildMinDists(n, q, dk, dst[:len(kids)])
					for i, kid := range kids {
						for _, it := range below[kid] {
							if exact := geom.MinDist(it.Sphere, q); !(dst[i] <= exact) {
								t.Fatalf("node %d child %d dk=%v: key %v exceeds MinDist %v of item %+v, q=%+v dim=%d",
									n, i, dk, dst[i], exact, it, q, dim)
							}
						}
					}
				}
			}
		}
	})
}
