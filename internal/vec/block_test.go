package vec

import (
	"math"
	"math/rand"
	"testing"
)

// refDist2 is the scalar reference the block kernels must match bit-for-bit.
func refDist2(a, b []float64) float64 {
	var s float64
	for i, ai := range a {
		d := ai - b[i]
		s += d * d
	}
	return s
}

func randBlock(rng *rand.Rand, n, d int) (centers, radii []float64) {
	centers = make([]float64, n*d)
	radii = make([]float64, n)
	for i := range centers {
		centers[i] = rng.NormFloat64() * 10
	}
	for i := range radii {
		radii[i] = rng.Float64() * 3
	}
	return centers, radii
}

// TestDistBlockBitIdentical checks DistBlock against the scalar Dist for
// every dimensionality the unrolling has a distinct tail for.
func TestDistBlockBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 10, 13, 16} {
		for _, n := range []int{1, 2, 5, 24} {
			centers, _ := randBlock(rng, n, d)
			q := make([]float64, d)
			for i := range q {
				q[i] = rng.NormFloat64() * 10
			}
			dst := make([]float64, n)
			DistBlock(dst, centers, q)
			for i := 0; i < n; i++ {
				want := math.Sqrt(refDist2(centers[i*d:(i+1)*d], q))
				if dst[i] != want {
					t.Fatalf("d=%d n=%d entry %d: DistBlock=%v want %v", d, n, i, dst[i], want)
				}
			}
		}
	}
}

// TestMinDistSphereBlockBitIdentical locks the exact subtraction order of
// the sphere mindist kernel: sqrt(dist2) − entryRadius − queryRadius,
// clamped at 0, matching geom.MinDist(entry, query).
func TestMinDistSphereBlockBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range []int{1, 2, 3, 4, 6, 8, 10} {
		n := 24
		centers, radii := randBlock(rng, n, d)
		q := make([]float64, d)
		for i := range q {
			q[i] = rng.NormFloat64() * 10
		}
		qr := rng.Float64() * 2
		dst := make([]float64, n)
		MinDistSphereBlock(dst, centers, radii, q, qr)
		for i := 0; i < n; i++ {
			want := math.Sqrt(refDist2(centers[i*d:(i+1)*d], q)) - radii[i] - qr
			if want < 0 {
				want = 0
			}
			if dst[i] != want {
				t.Fatalf("d=%d entry %d: MinDistSphereBlock=%v want %v", d, i, dst[i], want)
			}
		}
	}
}

// TestMinDistSphereBlockClamps covers the overlap case: a query sphere fat
// enough to touch every entry must yield exactly 0.
func TestMinDistSphereBlockClamps(t *testing.T) {
	centers := []float64{0, 0, 3, 4}
	radii := []float64{1, 1}
	dst := make([]float64, 2)
	MinDistSphereBlock(dst, centers, radii, []float64{0, 0}, 100)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("fat query: got %v, want zeros", dst)
	}
}

// TestBlockKernelsPanic checks the length validation of every kernel.
func TestBlockKernelsPanic(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on mismatched lengths", name)
			}
		}()
		fn()
	}
	q := []float64{0, 0}
	expectPanic("DistBlock ragged", func() { DistBlock(make([]float64, 2), make([]float64, 5), q) })
	expectPanic("DistBlock dst", func() { DistBlock(make([]float64, 3), make([]float64, 4), q) })
	expectPanic("MinDistSphereBlock radii", func() {
		MinDistSphereBlock(make([]float64, 2), make([]float64, 4), make([]float64, 1), q, 0)
	})
	expectPanic("DistBlock empty q", func() { DistBlock(nil, nil, nil) })
}

// TestBlockKernelsEmpty: zero entries is a no-op, not an error.
func TestBlockKernelsEmpty(t *testing.T) {
	q := []float64{1, 2}
	DistBlock(nil, nil, q)
	MinDistSphereBlock(nil, nil, nil, q, 1)
}

func BenchmarkMinDistSphereBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	const n, d = 24, 8
	centers, radii := randBlock(rng, n, d)
	q := make([]float64, d)
	dst := make([]float64, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MinDistSphereBlock(dst, centers, radii, q, 1)
	}
}
