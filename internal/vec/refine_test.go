package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

type refineKernel struct {
	name string
	f    RefineF32Func
}

// refineKernels is the Go loop and the kernel refineF32 dispatches to: on
// an amd64 CPU with AVX2 and FMA that is the assembly kernel, elsewhere
// the Go loop again.
func refineKernels() []refineKernel {
	return []refineKernel{{kernelName(refineF32Go), refineF32Go}, {kernelName(refineF32), refineF32}}
}

func kernelName(f any) string {
	name := runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
	return name[strings.LastIndexByte(name, '.')+1:]
}

// refineLeaf is one pass-2 input: a leaf of n items at dimension d, the
// ascending pivot survivors sel, and the threshold terms.
type refineLeaf struct {
	sel     []int32
	sr      []float32
	centers []float32
	q       []float64
	qr, dk  float64
}

// run applies kernel k to a copy of sel and checks what every kernel must
// do: survivors are an ascending subsequence of sel, sel past them is
// untouched, and every item k drops is one the exact path drops too —
// sqrt(dist2Seq) over the widened centers, less sr and qr, exceeds dk.
func (l refineLeaf) run(t *testing.T, k refineKernel) []int32 {
	t.Helper()
	buf := append(slices.Clone(l.sel), -7) // a sentinel past sel
	cnt := k.f(buf[:len(l.sel)], l.sr, l.centers, l.q, l.dk+l.qr)
	if cnt < 0 || cnt > len(l.sel) || buf[len(l.sel)] != -7 {
		t.Fatalf("%s: count %d of %d, sentinel %d", k.name, cnt, len(l.sel), buf[len(l.sel)])
	}
	got := buf[:cnt]
	j := 0
	for _, i := range l.sel {
		if j < len(got) && got[j] == i {
			j++
			continue
		}
		if !(l.exactMinDist(int(i)) > l.dk) {
			t.Fatalf("%s: dropped item %d, exact mindist %v <= dk %v (d=%d, sr=%v, qr=%v)",
				k.name, i, l.exactMinDist(int(i)), l.dk, len(l.q), l.sr[i], l.qr)
		}
	}
	if j != len(got) {
		t.Fatalf("%s: survivors %v are not an ascending subsequence of %v", k.name, got, l.sel)
	}
	return got
}

func (l refineLeaf) exactMinDist(i int) float64 {
	d := len(l.q)
	w := make([]float64, d)
	for j := range w {
		w[j] = float64(l.centers[i*d+j])
	}
	return math.Sqrt(dist2Seq(w, l.q)) - float64(l.sr[i]) - l.qr
}

// FuzzSelectKernelsAgree runs both pass-2 kernels of SelectLeafSphereF32
// on arbitrary leaves of 1–33 dimensions (the 4-wide, 2-wide and 1-wide
// steps, and d past the served 10) — NaN, ±Inf, ±1e300, denormals, squared
// sums that overflow — over an arbitrary ascending subset of the items.
// Each must return ascending survivors and drop only items the exact path
// drops (refineLeaf.run); the two may differ only in rounding order, so
// they are not held to equal survivors here (the recorded traffic of
// TestKernelsReplay is).
func FuzzSelectKernelsAgree(f *testing.F) {
	f.Add([]byte{9, 23, 0})
	f.Add([]byte{32, 5, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	ext := []byte{6, 3, 0}
	for _, v := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e-40, 3e-45,
		5e-324, math.MaxFloat64, -math.MaxFloat64, 9.5e153, -9.5e153, 0, 1, -1,
	} {
		ext = binary.LittleEndian.AppendUint64(ext, math.Float64bits(v))
	}
	f.Add(ext)
	// Squares that sum just past MaxFloat64: centers 0, query near
	// sqrt(MaxFloat64/3) in every coordinate.
	over := []byte{2, 0, 0, 0, 0, 0}
	for j := 0; j < 3; j++ {
		over = binary.LittleEndian.AppendUint64(over, math.Float64bits(7.7e153))
	}
	f.Add(over)

	kernels := refineKernels()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		d := 1 + int(data[0])%33
		n := 1 + int(data[1])%24
		mask := data[2]
		data = data[3:]
		rng := rand.New(rand.NewSource(int64(len(data))*131 + int64(d)*31 + int64(n)))
		next := func() float64 {
			if len(data) >= 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				return v
			}
			return rng.NormFloat64() * 100
		}
		l := refineLeaf{sr: make([]float32, n), centers: make([]float32, n*d), q: make([]float64, d)}
		for i := range l.centers {
			l.centers[i] = float32(next())
		}
		for j := range l.q {
			l.q[j] = next()
		}
		for i := range l.sr {
			l.sr[i] = float32(math.Abs(next())) // slack + radius: never negative, NaN stays
		}
		// The select's domain (Tier.prunes in package packed): qr >= 0,
		// and a finite dk >= 0.
		l.qr = math.Abs(next())
		if math.IsNaN(l.qr) {
			l.qr = 0
		}
		for i := 0; i < n; i++ {
			if mask == 0 || (mask>>(i%8))&1 == 1 || i%9 == 8 {
				l.sel = append(l.sel, int32(i))
			}
		}
		// A drawn dk and the exact mindists of two items, where the
		// drop/keep boundary cuts.
		for _, dk := range []float64{math.Abs(next()), l.exactMinDist(n / 2), l.exactMinDist(n - 1)} {
			if !(dk >= 0) || math.IsInf(dk, 1) {
				continue
			}
			l.dk = dk
			for _, k := range kernels {
				l.run(t, k)
			}
		}
	})
}

// TestRefineKernelsAgree runs both kernels over Gaussian leaves with dk
// set at each item's own exact mindist and just either side of it — where
// only the shave decides — and requires the same survivors at every
// dimension the wide and tail steps split differently.
func TestRefineKernelsAgree(t *testing.T) {
	kernels := refineKernels()
	t.Logf("kernels: %s, %s", kernels[0].name, kernels[1].name)
	rng := rand.New(rand.NewSource(63))
	for d := 1; d <= 33; d++ {
		for trial := 0; trial < 20; trial++ {
			l := randomRefineLeaf(rng, 24, d)
			for _, scale := range []float64{1 - 1e-6, 1, 1 + 1e-6} {
				l.dk = math.Max(0, l.exactMinDist(trial%24)*scale)
				want := l.run(t, kernels[0])
				if got := l.run(t, kernels[1]); !slices.Equal(got, want) {
					t.Fatalf("d=%d trial %d dk=%v: %s kept %v, %s kept %v",
						d, trial, l.dk, kernels[1].name, got, kernels[0].name, want)
				}
			}
		}
	}
}

// TestRefineShaveBits pins the shaves the assembly kernels load as
// constants — 1−2·lbEps in refine_amd64.s and childkeys_amd64.s, 1−lbEps
// in childkeys_amd64.s: a change to lbEps must change them there too.
func TestRefineShaveBits(t *testing.T) {
	if got := math.Float64bits(1 - 2*lbEps); got != 0x3feffffffeed1f41 {
		t.Fatalf("1-2*lbEps has bits %#x; update refine_amd64.s and childkeys_amd64.s", got)
	}
	if got := math.Float64bits(1 - lbEps); got != 0x3fefffffff768fa1 {
		t.Fatalf("1-lbEps has bits %#x; update childkeys_amd64.s", got)
	}
}

func randomRefineLeaf(rng *rand.Rand, n, d int) refineLeaf {
	l := refineLeaf{sr: make([]float32, n), centers: make([]float32, n*d), q: make([]float64, d)}
	for i := range l.centers {
		l.centers[i] = float32(100 + 25*rng.NormFloat64())
	}
	for j := range l.q {
		l.q[j] = 100 + 25*rng.NormFloat64()
	}
	for i := range l.sr {
		l.sr[i] = float32(math.Abs(rng.NormFloat64()))
	}
	l.qr = math.Abs(rng.NormFloat64())
	for i := 0; i < n; i++ {
		l.sel = append(l.sel, int32(i))
	}
	return l
}

var benchSink int

// BenchmarkSelectLeafSphereF32 times the whole leaf select, pivot pass
// included, with each pass-2 kernel: 24-item leaves at the served
// dimensions and past them, with the pivot keeping about 0.6, 0.73 and
// 0.97 of the items — the pass-1 survival of scan_d10, mixed_snap and
// fat_d10 — and dk set so that about one item in ten survives the refine.
func BenchmarkSelectLeafSphereF32(b *testing.B) {
	const n, leaves = 24, 256
	for _, k := range refineKernels() {
		for _, d := range []int{4, 6, 10, 16} {
			for _, keep := range []float64{0.6, 0.73, 0.97} {
				b.Run(fmt.Sprintf("%s/d=%d/pivot=%.2f", k.name, d, keep), func(b *testing.B) {
					rng := rand.New(rand.NewSource(int64(d)))
					type leaf struct {
						refineLeaf
						pd []float32
					}
					ls := make([]leaf, leaves)
					const dCent = 50.0
					for i := range ls {
						l := randomRefineLeaf(rng, n, d)
						ex := make([]float64, n)
						for j := range ex {
							ex[j] = l.exactMinDist(j)
						}
						slices.Sort(ex)
						l.dk = ex[n/10]
						// mFar = dCent − qr − dk − 1e-12·dCent: pd below it drops.
						mFar := dCent - l.qr - l.dk - 1e-12*dCent
						pd := make([]float32, n)
						for j := range pd {
							pd[j] = float32(mFar + 1)
							if rng.Float64() >= keep {
								pd[j] = float32(mFar - 1)
							}
						}
						ls[i] = leaf{l, pd}
					}
					sel := make([]int32, n)
					prev := refineF32
					refineF32 = k.f
					defer func() { refineF32 = prev }()
					b.ResetTimer()
					for it := 0; it < b.N; it++ {
						l := &ls[it%leaves]
						benchSink += SelectLeafSphereF32(sel, l.pd, l.sr, dCent, l.centers, l.q, l.qr, l.dk)
					}
				})
			}
		}
	}
}
