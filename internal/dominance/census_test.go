package dominance

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// scanDmin is an independent upper bound on the distance from (p1, p2),
// p2 > 0 and inside Ra, to the branch x(y) = −A·√(1 + y²/B²): a dense scan of
// branch points followed by a golden-section refine around the best one.
// Every sample is a real branch point, so the result can only sit above the
// true dmin. The minimiser's ordinate lies in [p2, p2 + g], g the horizontal
// gap x(p2) − p1: reflecting a branch point below the axis brings it nearer,
// the outward normal keeps it above p2, and the point level with cq is g
// away. The scan is uniform across that range and geometric towards p2, so
// it resolves the vertex's rounding however small B is next to g.
func scanDmin(hA, b2, p1, p2 float64) float64 {
	dist := func(y float64) float64 {
		return math.Hypot(p1+hA*math.Sqrt(1+y*y/b2), p2-y)
	}
	g := -hA*math.Sqrt(1+p2*p2/b2) - p1
	ys := make([]float64, 0, 514)
	for i := 0; i <= 256; i++ {
		ys = append(ys, p2+g*float64(i)/256, p2+g*math.Pow(10, -14*float64(i)/256))
	}
	sort.Float64s(ys)
	best := 0
	for i := range ys {
		if dist(ys[i]) < dist(ys[best]) {
			best = i
		}
	}
	lo, hi := ys[max(best-1, 0)], ys[min(best+1, len(ys)-1)]
	const phi = 0.6180339887498949
	a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
	for i := 0; i < 200 && a < b; i++ {
		if dist(a) < dist(b) {
			hi, b = b, a
			a = hi - phi*(hi-lo)
		} else {
			lo, a = a, b
			b = lo + phi*(hi-lo)
		}
	}
	return min(dist(ys[best]), dist(a), dist(b))
}

// TestHyperbolaDminCensus holds the reference's dmin to the branch itself on
// random canonical frames, a third of them almost tangent
// (A/α = 1 − 10^[−9, −1]), a third almost point-like and a third in between,
// with cq near the vertex or far along the asymptote and at gaps from 1e-6
// to 1 of the local scale. hyperbolaDmin is a minimum over branch points
// too, so it may sit below scanDmin by rounding but never above it: a frame
// where it exceeds scanDmin by more than 1e-9 relative is one where the
// minimiser was missed. The float64 scan resolves 1e-9 of dmin only where
// dmin is above about 1e-6 of the frame's coordinates: each branch point's
// distance is rounded to a few ulp of |p1| + α + p2 (the subtraction
// p1 − x(y) cancels), and the scan's least sample picks up that noise. So an
// excess counts only when it also clears 1e-15 of |p1| + α + p2, about
// 4.5 ulp of that scale; below it the two minima agree to rounding.
func TestHyperbolaDminCensus(t *testing.T) {
	frames := 100000
	if testing.Short() {
		frames = 20000
	}
	rng := rand.New(rand.NewSource(46))
	logU := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	bad := 0
	for f := 0; f < frames; f++ {
		alpha := logU(1e-3, 1e3)
		var hA float64
		switch f % 3 {
		case 0:
			hA = alpha * (1 - logU(1e-9, 1e-1))
		case 1:
			hA = alpha * logU(1e-6, 1e-1)
		default:
			hA = alpha * rng.Float64()
		}
		b2 := (alpha - hA) * (alpha + hA)
		if !(hA > 0 && b2 > 0) {
			continue
		}
		b := math.Sqrt(b2)
		gap := logU(1e-6, 1)
		var p2 float64
		if f%4 < 2 { // near the vertex, inside its circle of curvature
			p2 = b * logU(1e-6, 1)
			gap *= b2 / hA
		} else {
			p2 = b * logU(1e-3, 1e6)
			gap *= alpha + p2
		}
		p1 := -hA*math.Sqrt(1+p2*p2/b2) - gap
		ref := hyperbolaDmin(reduced{alpha: alpha, rab: 2 * hA, p1: p1, p2: p2, inside: true})
		scan := scanDmin(hA, b2, p1, p2)
		if over := ref - scan; over > 1e-9*scan && over > 1e-15*(math.Abs(p1)+alpha+p2) {
			if bad++; bad <= 5 {
				t.Errorf("frame %d: reference dmin %v exceeds a branch point's distance %v by %.3g relative\nα=%v A=%v p1=%v p2=%v",
					f, ref, scan, (ref-scan)/scan, alpha, hA, p1, p2)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d frames: the reference's dmin exceeds a branch point's distance by more than 1e-9 relative", bad, frames)
	}
}
