package packed

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
)

// FuzzQuantizedLowerBound locks the conservatism contract of the narrow
// tiers (ISSUE 6): on arbitrary leaves of 2–10 dimensions — NaN/Inf
// coordinates, magnitudes beyond float32 range, negative radii, int8
// clamping, denormals, whatever the fuzzer finds — every item the leaf
// select drops, in either tier, must have exact mindist > dk. This is
// exactly the property the two-phase leaf pass needs: a coarse prune is
// then always a decision the exact path would have made too.
func FuzzQuantizedLowerBound(f *testing.F) {
	f.Add([]byte{3, 4, 0})
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	// A seed with non-finite and extreme-scale values in the float stream.
	ext := make([]byte, 2, 2+8*12)
	ext[0], ext[1] = 5, 3
	for _, v := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		1e300, -1e300, 4e38, -4e38, 1e-300, math.MaxFloat64, 0, 1, -1,
	} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		ext = append(ext, b[:]...)
	}
	f.Add(ext)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		dim := 2 + int(data[0])%9 // 2..10
		n := 1 + int(data[1])%8   // 1..8 entries per node
		data = data[2:]

		rng := rand.New(rand.NewSource(int64(len(data)) + int64(dim)*31 + int64(n)))
		next := func() float64 {
			if len(data) >= 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				return v
			}
			return rng.NormFloat64() * 100
		}

		// The stream layout (center, two more draws per coordinate, radius)
		// dates from when the target also built child rectangles; it is kept
		// so the committed corpus entry still decodes to the same leaf.
		items := make([]geom.Item, n)
		for i := range items {
			c := make([]float64, dim)
			for j := range c {
				c[j] = next()
				next()
				next()
			}
			items[i] = geom.Item{ID: i, Sphere: geom.Sphere{Center: c, Radius: next()}}
		}
		qc := make([]float64, dim)
		for j := range qc {
			qc[j] = next()
		}
		// The select kernels' threshold arithmetic assumes a non-negative
		// query radius and dk — exactly what the traversal guarantees
		// (quantOn and stashQuant in package knn) — so the query runs with
		// |radius|.
		q := geom.Sphere{Center: qc, Radius: math.Abs(next())}

		sb := NewBuilder(KindSphere, dim)
		leaf := sb.Leaf(items)
		st := sb.FinishSphere(leaf, items[0].Sphere.Center, items[0].Sphere.Radius)

		// The exact per-item mindist expression the traversal evaluates:
		// dist − radius − qr, clamped at 0 (a NaN fails the > 0 test).
		exact := leafMinDists(st, leaf, q)
		// A query-derived dk and one sitting in the middle of the exact
		// mindist range, where the drop/keep boundary actually cuts.
		for _, dk := range []float64{q.Radius, exact[n/2]} {
			if math.IsNaN(dk) || math.IsInf(dk, 0) {
				continue
			}
			for _, tier := range []Tier{TierF32, TierI8} {
				for i, kept := range selectKept(st, tier, leaf, q, dk) {
					if !kept && !(exact[i] > dk) {
						t.Fatalf("leaf-select tier=%d entry %d: dropped but exact mindist %v <= dk %v, dim=%d n=%d",
							tier, i, exact[i], dk, dim, n)
					}
				}
			}
		}
	})
}
