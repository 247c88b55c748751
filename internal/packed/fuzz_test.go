package packed

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/vec"
)

// FuzzPackedMinDist locks the bit-exactness contract of the frozen layout
// (ISSUE 5): on arbitrary nodes of 2–10 dimensions, the streaming block
// kernels behind ChildMinDists and LeafDists must reproduce the pointer
// path's per-entry geom.MinDist / geom.MinDistRectSphere / vec.Dist values
// bit for bit — including non-finite inputs, where "same bits" means the
// same NaN propagation, so the packed traversal can never diverge from the
// pointer traversal on any input.
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
		lo := make([][]float64, n)
		hi := make([][]float64, n)
		items := make([]geom.Item, n)
		for i := 0; i < n; i++ {
			c := make([]float64, dim)
			l := make([]float64, dim)
			h := make([]float64, dim)
			for j := 0; j < dim; j++ {
				c[j] = next()
				l[j] = next()
				h[j] = l[j] + math.Abs(next())
			}
			centers[i], radii[i], lo[i], hi[i] = c, next(), l, h
			items[i] = geom.Item{ID: i, Sphere: geom.Sphere{Center: c, Radius: radii[i]}}
		}
		qc := make([]float64, dim)
		for j := range qc {
			qc[j] = next()
		}
		q := geom.Sphere{Center: qc, Radius: next()}

		dst := make([]float64, n)

		// Sphere-bounded internal node + leaf (SS-tree / M-tree shape).
		sb := NewBuilder(KindSphere, dim)
		leafID := sb.Leaf(items)
		var kids []int32
		for range centers {
			kids = append(kids, leafID)
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
		st.LeafDists(leafID, qc, dst)
		for i := range dst {
			want := vec.Dist(items[i].Sphere.Center, qc)
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("leaf dist[%d] = %v, pointer path %v, dim=%d n=%d", i, dst[i], want, dim, n)
			}
		}

		// Rect-bounded internal node (R-tree shape).
		rb := NewBuilder(KindRect, dim)
		rleaf := rb.Leaf(items)
		node = rb.InternalRect(kidsOf(rleaf, n), lo, hi)
		rt := rb.FinishRect(node, lo[0], hi[0])
		rt.ChildMinDists(node, q, math.Inf(1), dst)
		for i := range dst {
			want := geom.MinDistRectSphere(geom.Rect{Lo: lo[i], Hi: hi[i]}, q)
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("rect mindist[%d] = %v, pointer path %v, dim=%d n=%d", i, dst[i], want, dim, n)
			}
		}
	})
}

// kidsOf returns n copies of the id — the fuzz nodes only exercise
// geometry, so every entry can point at the same child.
func kidsOf(id int32, n int) []int32 {
	kids := make([]int32, n)
	for i := range kids {
		kids[i] = id
	}
	return kids
}
