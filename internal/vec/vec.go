// Package vec provides small dense-vector kernels used throughout the
// hypersphere-dominance library. All functions treat a []float64 as a point
// or vector in d-dimensional Euclidean space and avoid allocation unless
// they must return a fresh slice.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(dimMismatch("Dot", len(a), len(b)))
	}
	var s float64
	for i, ai := range a {
		s += ai * b[i]
	}
	return s
}

// Norm returns the Euclidean norm of a.
func Norm(a []float64) float64 {
	return math.Sqrt(Dot(a, a))
}

// Dist returns the Euclidean distance between points a and b (Eq. 1 of the
// paper). It panics if the lengths differ.
func Dist(a, b []float64) float64 {
	return math.Sqrt(Dist2(a, b))
}

// Dist2 returns the squared Euclidean distance between points a and b.
func Dist2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(dimMismatch("Dist2", len(a), len(b)))
	}
	var s float64
	for i, ai := range a {
		d := ai - b[i]
		s += d * d
	}
	return s
}

// Sub returns a−b as a new slice.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(dimMismatch("Sub", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, ai := range a {
		out[i] = ai - b[i]
	}
	return out
}

// Scale returns s·a as a new slice.
func Scale(s float64, a []float64) []float64 {
	out := make([]float64, len(a))
	for i, ai := range a {
		out[i] = s * ai
	}
	return out
}

// Axpy stores y + s·x into dst and returns dst (dst may alias x or y).
func Axpy(dst []float64, s float64, x, y []float64) []float64 {
	if len(x) != len(y) || len(dst) != len(x) {
		panic(dimMismatch("Axpy", len(x), len(y)))
	}
	for i, xi := range x {
		dst[i] = y[i] + s*xi
	}
	return dst
}

// Clone returns a copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Equal reports whether a and b have the same length and identical elements.
func Equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, ai := range a {
		if ai != b[i] {
			return false
		}
	}
	return true
}

// Unit returns a/‖a‖ as a new slice, and the norm. If a is the zero vector
// it returns a copy of a and 0.
func Unit(a []float64) ([]float64, float64) {
	n := Norm(a)
	if n == 0 {
		return Clone(a), 0
	}
	return Scale(1/n, a), n
}

// IsFinite reports whether every element of a is finite (no NaN/±Inf).
func IsFinite(a []float64) bool {
	for _, ai := range a {
		if math.IsNaN(ai) || math.IsInf(ai, 0) {
			return false
		}
	}
	return true
}

func dimMismatch(op string, a, b int) string {
	return fmt.Sprintf("vec: %s dimension mismatch: %d vs %d", op, a, b)
}
