package dominance

import (
	"math"
	"math/rand"

	"hyperdom/internal/geom"
	"hyperdom/internal/vec"
)

// instance is one dominance problem.
type instance struct {
	sa, sb, sq geom.Sphere
}

// randSphereT returns a random sphere with N(0, scale) coordinates and a
// radius uniform in [0, maxR].
func randSphereT(rng *rand.Rand, d int, scale, maxR float64) geom.Sphere {
	c := make([]float64, d)
	for i := range c {
		c[i] = rng.NormFloat64() * scale
	}
	return geom.NewSphere(c, rng.Float64()*maxR)
}

// randInstance generates a random dominance instance. Roughly half the
// instances are "borderline": Sq's radius is placed within ±20% of the true
// dmin so that verdicts flip around the decision boundary, which is where
// bugs live.
func randInstance(rng *rand.Rand, d int) instance {
	for {
		sa := randSphereT(rng, d, 10, 4)
		sb := randSphereT(rng, d, 10, 4)
		sq := randSphereT(rng, d, 10, 4)
		if geom.Overlap(sa, sb) {
			if rng.Float64() < 0.9 {
				continue // keep some overlapping instances, but not 40% of them
			}
			return instance{sa, sb, sq}
		}
		if rng.Float64() < 0.5 {
			red, ok := reduce(sa, sb, sq)
			if ok && red.inside {
				dmin := exactDmin(red)
				sq.Radius = dmin * (0.8 + 0.4*rng.Float64())
			}
		}
		return instance{sa, sb, sq}
	}
}

// randRotation returns a random d×d orthonormal matrix (rows are the basis)
// built by Gram-Schmidt on a Gaussian matrix.
func randRotation(rng *rand.Rand, d int) [][]float64 {
	for {
		m := make([][]float64, d)
		ok := true
		for i := 0; i < d && ok; i++ {
			v := make([]float64, d)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			for k := 0; k < i; k++ {
				p := vec.Dot(v, m[k])
				vec.Axpy(v, -p, m[k], v)
			}
			n := vec.Norm(v)
			if n < 1e-8 {
				ok = false
				break
			}
			v = vec.Scale(1/n, v)
			m[i] = v
		}
		if ok {
			return m
		}
	}
}

// apply returns the image of point p under rotation m.
func apply(m [][]float64, p []float64) []float64 {
	out := make([]float64, len(m))
	for i, row := range m {
		out[i] = vec.Dot(row, p)
	}
	return out
}

// transformSphere applies rotation m, then scales by s, then translates by t.
func transformSphere(sp geom.Sphere, m [][]float64, s float64, t []float64) geom.Sphere {
	c := apply(m, sp.Center)
	for i := range c {
		c[i] = c[i]*s + t[i]
	}
	return geom.NewSphere(c, sp.Radius*math.Abs(s))
}

// nearBoundary reports whether the instance is too close to the decision
// boundary for float verdicts to be compared reliably: near-tangent Sa/Sb,
// or Sq within tol of grazing the hyperbola branch.
func nearBoundary(in instance, tol float64) bool {
	dcc := vec.Dist(in.sa.Center, in.sb.Center)
	rab := in.sa.Radius + in.sb.Radius
	if math.Abs(dcc-rab) < tol {
		return true // overlap verdict itself is ambiguous
	}
	red, ok := reduce(in.sa, in.sb, in.sq)
	if !ok {
		return false // robustly overlapping: verdict is a solid false
	}
	dmin := exactDmin(red) // distance from cq to the branch, either side
	if red.inside {
		return math.Abs(dmin-in.sq.Radius) < tol
	}
	// cq outside Ra: the verdict flips only if cq is nearly on the boundary
	// AND the query radius is nearly zero.
	return dmin < tol && in.sq.Radius < 2*tol
}
