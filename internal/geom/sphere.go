// Package geom defines the geometric primitives of the hypersphere-dominance
// library: d-dimensional hyperspheres and hyperrectangles together with the
// MinDist/MaxDist machinery of Section 2 of the paper.
package geom

import (
	"fmt"
	"math"

	"hyperdom/internal/vec"
)

// Sphere is a closed d-dimensional hypersphere (ball): the set of points at
// distance ≤ Radius from Center. A point is a Sphere with Radius 0.
type Sphere struct {
	Center []float64
	Radius float64
}

// NewSphere returns a sphere with the given center and radius. It panics if
// the sphere is not well-formed (Validate), because every caller bug of that
// kind would otherwise surface as a far-away wrong answer, or as an error
// from the first index the sphere is inserted into.
func NewSphere(center []float64, radius float64) Sphere {
	s := Sphere{Center: center, Radius: radius}
	if err := s.Validate(); err != nil {
		panic("geom: NewSphere: " + err.Error())
	}
	return s
}

// Point returns the degenerate sphere of radius 0 centered at p.
func Point(p []float64) Sphere { return Sphere{Center: p, Radius: 0} }

// Dim returns the dimensionality of the sphere.
func (s Sphere) Dim() int { return len(s.Center) }

// IsPoint reports whether the sphere has zero radius.
func (s Sphere) IsPoint() bool { return s.Radius == 0 }

// Clone returns a deep copy of s.
func (s Sphere) Clone() Sphere {
	return Sphere{Center: vec.Clone(s.Center), Radius: s.Radius}
}

// Contains reports whether point p lies inside or on s.
func (s Sphere) Contains(p []float64) bool {
	return vec.Dist2(s.Center, p) <= s.Radius*s.Radius
}

// ContainsSphere reports whether t lies entirely inside or on s.
func (s Sphere) ContainsSphere(t Sphere) bool {
	return vec.Dist(s.Center, t.Center)+t.Radius <= s.Radius
}

// String implements fmt.Stringer.
func (s Sphere) String() string {
	return fmt.Sprintf("Sphere(c=%v, r=%g)", s.Center, s.Radius)
}

// Validate returns an error if the sphere is malformed (empty center,
// negative or non-finite radius, non-finite coordinates).
func (s Sphere) Validate() error {
	if len(s.Center) == 0 {
		return fmt.Errorf("geom: sphere has empty center")
	}
	if !vec.IsFinite(s.Center) {
		return fmt.Errorf("geom: sphere center has non-finite coordinate: %v", s.Center)
	}
	if s.Radius < 0 || math.IsNaN(s.Radius) || math.IsInf(s.Radius, 0) {
		return fmt.Errorf("geom: sphere has invalid radius %v", s.Radius)
	}
	return nil
}

// MaxDist returns the maximum distance between a point of a and a point of
// b: Dist(ca,cb) + ra + rb (Eq. 3).
func MaxDist(a, b Sphere) float64 {
	return vec.Dist(a.Center, b.Center) + a.Radius + b.Radius
}

// MinDist returns the minimum distance between a point of a and a point of
// b: Dist(ca,cb) − ra − rb when the spheres are disjoint and 0 otherwise
// (Eq. 4).
func MinDist(a, b Sphere) float64 {
	d := vec.Dist(a.Center, b.Center) - a.Radius - b.Radius
	if d > 0 {
		return d
	}
	return 0
}

// MinDistPoint returns the minimum distance between sphere s and point p.
func MinDistPoint(s Sphere, p []float64) float64 {
	d := vec.Dist(s.Center, p) - s.Radius
	if d > 0 {
		return d
	}
	return 0
}

// MaxDistPoint returns the maximum distance between sphere s and point p.
func MaxDistPoint(s Sphere, p []float64) float64 {
	return vec.Dist(s.Center, p) + s.Radius
}

// Overlap reports whether a and b overlap: Dist(ca,cb) ≤ ra + rb
// (Section 2.1). Tangent spheres count as overlapping, matching Lemma 1.
func Overlap(a, b Sphere) bool {
	rs := a.Radius + b.Radius
	return vec.Dist2(a.Center, b.Center) <= rs*rs
}

// MBR returns the minimum bounding hyperrectangle of s.
func (s Sphere) MBR() Rect {
	d := s.Dim()
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i, c := range s.Center {
		lo[i] = c - s.Radius
		hi[i] = c + s.Radius
	}
	return Rect{Lo: lo, Hi: hi}
}
