package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

type childKeysKernel struct {
	name string
	f    ChildKeysFunc
}

// childKeysKernels is the scalar pair and the kernel childKeys dispatches
// to: on an amd64 CPU with AVX2 and FMA that is the assembly kernel,
// elsewhere the scalar pair again.
func childKeysKernels() []childKeysKernel {
	return []childKeysKernel{{kernelName(childKeysGo), childKeysGo}, {kernelName(childKeys), childKeys}}
}

// childBlock is one ChildKeysBlock input: n children at dimension d.
type childBlock struct {
	centers, radii []float64
	box            []float32
	q              []float64
	qr             float64
}

func (b childBlock) n() int { return len(b.radii) }

// keys runs kernel k into a fresh dst that sits, poisoned, inside a larger
// buffer, and fails if k wrote past dst.
func (b childBlock) keys(t testing.TB, k childKeysKernel, dk float64) ([]float64, int) {
	t.Helper()
	buf := make([]float64, b.n()+4)
	for i := range buf {
		buf[i] = math.Float64frombits(0x7ff8dead0000beef)
	}
	dst := buf[:b.n()]
	rej := k.f(dst, b.centers, b.radii, b.box, b.q, b.qr, dk)
	for i := b.n(); i < len(buf); i++ {
		if math.Float64bits(buf[i]) != 0x7ff8dead0000beef {
			t.Fatalf("%s wrote dst[%d] of a block of %d", k.name, i, b.n())
		}
	}
	return dst, rej
}

// agree runs every kernel on b under dk and requires bit-identical keys
// and the same reject count as the scalar pair.
func (b childBlock) agree(t testing.TB, kernels []childKeysKernel, dk float64) {
	t.Helper()
	want, wantRej := b.keys(t, kernels[0], dk)
	for _, k := range kernels[1:] {
		got, rej := b.keys(t, k, dk)
		if rej != wantRej {
			t.Fatalf("d=%d n=%d qr=%v dk=%v: %s rejected %d, %s %d",
				len(b.q), b.n(), b.qr, dk, k.name, rej, kernels[0].name, wantRej)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("d=%d n=%d qr=%v dk=%v: child %d: %s wrote %v (%#x), %s %v (%#x)",
					len(b.q), b.n(), b.qr, dk, i, k.name, got[i], math.Float64bits(got[i]),
					kernels[0].name, want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// sphereKey and boxKey are child i's key before the box step and the key
// the box step raises it to when nothing is rejected.
func (b childBlock) sphereKey(i int) float64 {
	dst := make([]float64, b.n())
	MinDistSphereBlock(dst, b.centers, b.radii, b.q, b.qr)
	return dst[i]
}

func (b childBlock) boxKey(i int) float64 {
	dst := make([]float64, b.n())
	MinDistSphereBlock(dst, b.centers, b.radii, b.q, b.qr)
	RaiseToBoxBlock(dst, b.box, b.q, b.qr, math.Inf(1))
	return dst[i]
}

// FuzzChildKeysKernelsAgree runs both kernels of ChildKeysBlock on
// arbitrary blocks of 1–33 dimensions and 1–40 children, so every width of
// the masked last group occurs, with NaN, ±Inf, ±1e300 and denormals in
// centers, radii and box ends, qr and dk drawn from 0, +Inf, NaN, negative
// numbers and the data, and dk also at a child's sphere and box keys. The
// keys must be bit-identical and the reject counts equal.
func FuzzChildKeysKernelsAgree(f *testing.F) {
	f.Add([]byte{9, 22, 0, 0, 0})
	f.Add([]byte{3, 38, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	ext := []byte{5, 6, 4, 5, 1}
	for _, v := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e-40, 3e-45,
		5e-324, math.MaxFloat64, -math.MaxFloat64, 9.5e153, -9.5e153, 0, 1, -1,
		math.Copysign(0, -1), 2.2250738585072014e-308,
	} {
		ext = binary.LittleEndian.AppendUint64(ext, math.Float64bits(v))
	}
	f.Add(ext)

	kernels := childKeysKernels()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		d := 1 + int(data[0])%33
		n := 1 + int(data[1])%40
		qrSel, dkSel, order := data[2], data[3], data[4]
		data = data[5:]
		rng := rand.New(rand.NewSource(int64(len(data))*131 + int64(d)*31 + int64(n)))
		next := func() float64 {
			if len(data) >= 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				return v
			}
			return rng.NormFloat64() * 100
		}
		b := childBlock{centers: make([]float64, n*d), radii: make([]float64, n),
			box: make([]float32, 2*n*d), q: make([]float64, d)}
		for i := range b.centers {
			b.centers[i] = next()
		}
		for i := range b.radii {
			b.radii[i] = next()
		}
		for j := range b.q {
			b.q[j] = next()
		}
		for i := 0; i < len(b.box); i += 2 {
			lo, hi := float32(next()), float32(next())
			if order&1 == 0 && lo > hi { // the built form; else whatever came
				lo, hi = hi, lo
			}
			b.box[i], b.box[i+1] = lo, hi
		}
		special := func(sel byte) float64 {
			switch sel % 6 {
			case 0:
				return 0
			case 1:
				return math.Inf(1)
			case 2:
				return math.NaN()
			case 3:
				return -math.Abs(next())
			default:
				return math.Abs(next())
			}
		}
		b.qr = special(qrSel)
		i := n / 2
		for _, dk := range []float64{special(dkSel), b.sphereKey(i), b.boxKey(i), b.boxKey(n - 1)} {
			b.agree(t, kernels, dk)
		}
	})
}

// TestChildKeysKernelsAgree runs both kernels over Gaussian blocks whose
// boxes lie inside their spheres, as built, at every dimension up to 33 and
// every block length up to 40, with dk exactly at, one ulp below and one
// ulp above a child's sphere key and box key — where the box step's
// admission, its squared-space reject and its raise each turn.
func TestChildKeysKernelsAgree(t *testing.T) {
	kernels := childKeysKernels()
	t.Logf("kernels: %s, %s", kernels[0].name, kernels[1].name)
	rng := rand.New(rand.NewSource(52))
	for d := 1; d <= 33; d++ {
		for n := 1; n <= 40; n++ {
			b := randomChildBlock(rng, n, d)
			i := rng.Intn(n)
			for _, key := range []float64{b.sphereKey(i), b.boxKey(i)} {
				for _, dk := range []float64{key, math.Nextafter(key, -1), math.Nextafter(key, math.Inf(1))} {
					b.agree(t, kernels, dk)
				}
			}
			b.agree(t, kernels, math.Inf(1))
			b.agree(t, kernels, -1)
		}
	}
}

// randomChildBlock draws n children around the query's neighbourhood, each
// with a box that is a random sub-box of its sphere's bounding box, as a
// node's box of the items below it is, rounded outward to float32.
func randomChildBlock(rng *rand.Rand, n, d int) childBlock {
	b := childBlock{centers: make([]float64, n*d), radii: make([]float64, n),
		box: make([]float32, 2*n*d), q: make([]float64, d)}
	for j := range b.q {
		b.q[j] = 100 + 25*rng.NormFloat64()
	}
	b.qr = math.Abs(rng.NormFloat64())
	for i := 0; i < n; i++ {
		r := 10 * math.Abs(rng.NormFloat64())
		b.radii[i] = r
		for j := 0; j < d; j++ {
			c := 100 + 25*rng.NormFloat64()
			b.centers[i*d+j] = c
			u, v := rng.Float64(), rng.Float64()
			lo, hi := c-r+2*r*math.Min(u, v), c-r+2*r*math.Max(u, v)
			b.box[2*(i*d+j)] = math.Nextafter32(float32(lo), float32(math.Inf(-1)))
			b.box[2*(i*d+j)+1] = math.Nextafter32(float32(hi), float32(math.Inf(1)))
		}
	}
	return b
}

// TestChildKeysPanicsAlike requires every kernel to refuse a malformed
// block with the scalar kernels' panic.
func TestChildKeysPanicsAlike(t *testing.T) {
	f64 := func(n int) []float64 { return make([]float64, n) }
	f32 := func(n int) []float32 { return make([]float32, n) }
	cases := []struct {
		name         string
		dst, c, r, q []float64
		box          []float32
	}{
		{"no dimensions", f64(2), f64(0), f64(2), f64(0), f32(0)},
		{"ragged centers", f64(2), f64(5), f64(2), f64(2), f32(8)},
		{"short dst", f64(1), f64(4), f64(2), f64(2), f32(8)},
		{"short radii", f64(2), f64(4), f64(1), f64(2), f32(8)},
		{"short box", f64(2), f64(4), f64(2), f64(2), f32(7)},
	}
	panicOf := func(k childKeysKernel, dst, c, r, q []float64, box []float32) (msg any) {
		defer func() { msg = recover() }()
		k.f(dst, c, r, box, q, 0, 1)
		return nil
	}
	kernels := childKeysKernels()
	for _, c := range cases {
		want := panicOf(kernels[0], c.dst, c.c, c.r, c.q, c.box)
		if want == nil {
			t.Fatalf("%s: %s did not panic", c.name, kernels[0].name)
		}
		if got := panicOf(kernels[1], c.dst, c.c, c.r, c.q, c.box); got != want {
			t.Errorf("%s: %s panicked with %v, %s with %v", c.name, kernels[1].name, got, kernels[0].name, want)
		}
	}
}

// BenchmarkChildKeysBlock times both kernels on blocks of 23 children, the
// mean fan-out the packed walk expands, at the served dimensions and past
// them, with dk at the block's largest sphere key, so that every child
// takes the box step. It reports ns per child.
func BenchmarkChildKeysBlock(b *testing.B) {
	const n, blocks = 23, 64
	for _, k := range childKeysKernels() {
		for _, d := range []int{4, 6, 10, 16} {
			b.Run(fmt.Sprintf("%s/d=%d", k.name, d), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(d)))
				bs := make([]childBlock, blocks)
				dks := make([]float64, blocks)
				for i := range bs {
					bs[i] = randomChildBlock(rng, n, d)
					for c := 0; c < n; c++ {
						dks[i] = math.Max(dks[i], bs[i].sphereKey(c))
					}
				}
				dst := make([]float64, n)
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					c := &bs[it%blocks]
					benchSink += k.f(dst, c.centers, c.radii, c.box, c.q, c.qr, dks[it%blocks])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/child")
			})
		}
	}
}
