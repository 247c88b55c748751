package packed

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/vec"
)

// FuzzPackedMinDist locks the bit-exactness contract of the frozen layout:
// on arbitrary nodes of 2–10 dimensions, the streaming block kernels behind
// ChildMinDists and LeafDistAt must reproduce the pointer path's per-entry
// geom.MinDist / vec.Dist values bit for bit — including non-finite inputs,
// where "same bits" means the same NaN propagation, so the packed traversal
// can never diverge from the pointer traversal on any input.
func FuzzPackedMinDist(f *testing.F) {
	f.Add([]byte{3, 4, 0})
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	seed := make([]byte, 3+8*16)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		dim := 2 + int(data[0])%9 // 2..10
		n := 1 + int(data[1])%8   // 1..8 entries per node
		data = data[2:]

		// Draw float64s from the fuzz input while it lasts, then from a
		// PRNG seeded by the input, so every byte budget yields a full node.
		rng := rand.New(rand.NewSource(int64(len(data)) + int64(dim)*31 + int64(n)))
		next := func() float64 {
			if len(data) >= 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				return v
			}
			return rng.NormFloat64() * 100
		}

		centers := make([][]float64, n)
		radii := make([]float64, n)
		items := make([]geom.Item, n)
		for i := 0; i < n; i++ {
			c := make([]float64, dim)
			for j := 0; j < dim; j++ {
				c[j] = next()
			}
			centers[i], radii[i] = c, next()
			items[i] = geom.Item{ID: i, Sphere: geom.Sphere{Center: c, Radius: radii[i]}}
		}
		qc := make([]float64, dim)
		for j := range qc {
			qc[j] = next()
		}
		q := geom.Sphere{Center: qc, Radius: next()}

		dst := make([]float64, n)

		// An internal node over n copies of one leaf: the fuzz node only
		// exercises geometry, so every entry can point at the same child.
		sb := NewBuilder(KindSphere, dim)
		leafID := sb.Leaf(items)
		kids := make([]int32, n)
		for i := range kids {
			kids[i] = leafID
		}
		node := sb.InternalSphere(kids, centers, radii)
		st := sb.FinishSphere(node, centers[0], radii[0])

		// dk < 0 is outside the box pass's domain, which leaves the sphere
		// bound alone in dst; FuzzBoxLowerBound covers the raised value.
		st.ChildMinDists(node, q, -1, dst)
		for i := range dst {
			want := geom.MinDist(geom.Sphere{Center: centers[i], Radius: radii[i]}, q)
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("sphere mindist[%d] = %v (bits %x), pointer path %v (bits %x), dim=%d n=%d",
					i, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want), dim, n)
			}
		}
		for i := range items {
			got := st.LeafDistAt(leafID, int32(i), qc)
			want := vec.Dist(items[i].Sphere.Center, qc)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("leaf dist[%d] = %v, pointer path %v, dim=%d n=%d", i, got, want, dim, n)
			}
		}
	})
}
