package vec

import (
	"math"
	"math/rand"
	"testing"
)

// TestEntryHelpersMatchBlocks locks the per-entry exact fallback to its
// block kernel bit for bit — the two-phase leaf pass mixes both on one
// leaf, so any divergence would break the packed-vs-pointer equality.
func TestEntryHelpersMatchBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(12)
		n := 1 + rng.Intn(9)
		centers := make([]float64, n*d)
		q := make([]float64, d)
		for i := range centers {
			centers[i] = rng.NormFloat64() * 50
		}
		for j := range q {
			q[j] = rng.NormFloat64() * 50
		}
		if trial%7 == 0 { // non-finite poke
			centers[rng.Intn(len(centers))] = math.NaN()
		}

		dst := make([]float64, n)
		DistBlock(dst, centers, q)
		for i := 0; i < n; i++ {
			got := DistEntry(centers[i*d:(i+1)*d], q)
			if math.Float64bits(got) != math.Float64bits(dst[i]) {
				t.Fatalf("trial %d: DistEntry[%d] = %v, block %v", trial, i, got, dst[i])
			}
		}
	}
}

// TestQuantKernelsConservative drives the narrow bound kernel directly with
// exactly-representable float32 data and zero slack: the bound must then
// sit within the lbEps shave of the exact kernel, never above it — the
// kernels' own arithmetic is the only error source in this setup.
func TestQuantKernelsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(10)
		n := 1 + rng.Intn(8)
		cen64 := make([]float64, n*d)
		cen32 := make([]float32, n*d)
		rad64 := make([]float64, n)
		rad32 := make([]float32, n)
		slack := make([]float32, n)
		q := make([]float64, d)
		for i := range cen64 {
			cen32[i] = float32(rng.NormFloat64() * 40)
			cen64[i] = float64(cen32[i])
		}
		for i := range rad64 {
			rad32[i] = float32(math.Abs(rng.NormFloat64() * 4))
			rad64[i] = float64(rad32[i])
		}
		for j := range q {
			q[j] = rng.NormFloat64() * 40
		}
		qr := math.Abs(rng.NormFloat64() * 2)

		exact := make([]float64, n)
		bound := make([]float64, n)
		MinDistSphereBlock(exact, cen64, rad64, q, qr)
		MinDistSphereBlockF32(bound, cen32, rad32, slack, q, qr)
		for i := range bound {
			if bound[i] > exact[i] {
				t.Fatalf("trial %d sphere f32: bound %v > exact %v", trial, bound[i], exact[i])
			}
			if exact[i] > 0 && bound[i] < exact[i]*(1-1e-6) {
				t.Fatalf("trial %d sphere f32: bound %v too loose vs exact %v", trial, bound[i], exact[i])
			}
		}
	}
}

// TestQuantKernelClamp: degenerate narrow inputs (NaN slack, Inf radius,
// overflowed center) must produce the never-prunes bound 0, not NaN/Inf.
func TestQuantKernelClamp(t *testing.T) {
	q := []float64{1, 2}
	dst := make([]float64, 1)
	nan32 := float32(math.NaN())
	inf32 := float32(math.Inf(1))

	MinDistSphereBlockF32(dst, []float32{nan32, 0}, []float32{0}, []float32{0}, q, 0)
	if dst[0] != 0 {
		t.Fatalf("NaN center: bound %v, want 0", dst[0])
	}
	MinDistSphereBlockF32(dst, []float32{1e30, 1e30}, []float32{inf32}, []float32{0}, q, 0)
	if dst[0] != 0 {
		t.Fatalf("Inf radius: bound %v, want 0", dst[0])
	}
	MinDistSphereBlockF32(dst, []float32{100, 100}, []float32{0}, []float32{nan32}, q, 0)
	if dst[0] != 0 {
		t.Fatalf("NaN slack: bound %v, want 0", dst[0])
	}
}
