// Package hyperdom is a production-quality Go implementation of the paper
// "Hypersphere Dominance: An Optimal Approach" (Long, Wong, Zhang, Xie —
// SIGMOD 2014).
//
// # The dominance operator
//
// Given three hyperspheres Sa, Sb and Sq in d-dimensional Euclidean space,
// Sa dominates Sb with respect to Sq iff every point of Sa is strictly
// closer to every point of Sq than every point of Sb is:
//
//	∀q ∈ Sq, ∀a ∈ Sa, ∀b ∈ Sb :  Dist(a,q) < Dist(b,q)
//
// Dominance is the fundamental pruning operator of spatial queries over
// uncertain objects (kNN, reverse kNN, inverse ranking, top-k dominating).
// The paper's Hyperbola criterion is the first decision procedure that is
// simultaneously correct (no false positives), sound (no false negatives)
// and O(d); this package exposes it as Dominates, along with the four
// competitor criteria the paper evaluates, SS-tree / M-tree / R-tree indexes,
// and the kNN, reverse-kNN, inverse-ranking and top-k dominating queries
// built on the operator.
//
// # Quick start
//
//	sa := hyperdom.NewSphere([]float64{0, 0}, 1)   // object A
//	sb := hyperdom.NewSphere([]float64{9, 0}, 1)   // object B
//	sq := hyperdom.NewSphere([]float64{-4, 0}, 2)  // uncertain query
//	if hyperdom.Dominates(sa, sb, sq) {
//	    // B can never be closer to the query than A: prune B.
//	}
//
// See the examples directory for index-backed kNN search and the cmd
// directory for the experiment harness that regenerates the paper's
// figures.
package hyperdom

import (
	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
)

// Sphere is a closed d-dimensional ball with a Center point and a Radius.
// A point is a Sphere of radius 0.
type Sphere = geom.Sphere

// Rect is a closed axis-aligned d-dimensional hyperrectangle.
type Rect = geom.Rect

// Item is a Sphere labelled with a caller-assigned ID, the unit stored in
// indexes and returned from queries.
type Item = geom.Item

// NewSphere returns a sphere with the given center and radius; it panics
// on anything Sphere.Validate refuses: an empty center, a non-finite
// coordinate, a negative or non-finite radius.
func NewSphere(center []float64, radius float64) Sphere {
	return geom.NewSphere(center, radius)
}

// Point returns the degenerate sphere of radius 0 centered at p.
func Point(p []float64) Sphere { return geom.Point(p) }

// MinDist returns the minimum distance between a point of a and a point of
// b (0 if the spheres overlap).
func MinDist(a, b Sphere) float64 { return geom.MinDist(a, b) }

// MaxDist returns the maximum distance between a point of a and a point of
// b.
func MaxDist(a, b Sphere) float64 { return geom.MaxDist(a, b) }

// Overlap reports whether the two spheres share at least one point
// (tangency counts).
func Overlap(a, b Sphere) bool { return geom.Overlap(a, b) }

// Dominates reports whether sa dominates sb with respect to the query
// sphere sq, decided exactly in O(d) time by the paper's Hyperbola
// criterion.
func Dominates(sa, sb, sq Sphere) bool {
	return dominance.Hyperbola{}.Dominates(sa, sb, sq)
}

// PreparedPair is the pair-amortized form of the Hyperbola criterion: all
// work that depends only on (Sa, Sb) — the overlap test, the focal frame,
// and the quartic prefactors — is done once, and each Dominates call pays
// only two dot products plus (for fat borderline queries) the closed-form
// quartic. Verdicts are bit-identical to Dominates(sa, sb, sq).
//
// Use it when one object pair is checked against many queries: moving
// queries over fixed objects, pruning sweeps, ground-truth matrices.
//
//	pp := hyperdom.PreparePair(sa, sb)
//	for _, sq := range queries {
//	    if pp.Dominates(sq) { ... }
//	}
type PreparedPair = dominance.PreparedPair

// PreparePair factors the (Sa, Sb)-only part of the Hyperbola criterion in
// O(d) time; it panics if the spheres mix dimensionalities. The returned
// value references the centers of sa and sb — do not mutate them while the
// pair is in use.
func PreparePair(sa, sb Sphere) PreparedPair { return dominance.PreparePair(sa, sb) }

// Criterion is a decision procedure for the dominance problem. The five
// criteria of the paper's Table 1 are available through the constructors
// below; all are safe for concurrent use.
type Criterion = dominance.Criterion

// Hyperbola returns the paper's optimal criterion: correct, sound, O(d).
func Hyperbola() Criterion { return dominance.Hyperbola{} }

// MinMax returns the MinMax criterion: correct, not sound, O(d).
func MinMax() Criterion { return dominance.MinMax{} }

// MBR returns the adapted MBR criterion: correct, not sound, O(d).
func MBR() Criterion { return dominance.MBR{} }

// GP returns the adapted GP criterion: correct, not sound (optimal for
// d ≤ 2), O(d).
func GP() Criterion { return dominance.GP{} }

// Trigonometric returns the adapted Trigonometric criterion: sound, not
// correct, O(d).
func Trigonometric() Criterion { return dominance.Trigonometric{} }

// Exact returns the reference oracle: correct and sound like Hyperbola but
// implemented with an independent numeric minimiser. Intended for testing
// and validation, not for hot pruning loops.
func Exact() Criterion { return dominance.Exact{} }

// Criteria returns the five criteria of Table 1 in the paper's order.
func Criteria() []Criterion { return dominance.All() }

// CriterionByName returns the named criterion ("Hyperbola", "MinMax",
// "MBR", "GP", "Trigonometric", "Exact") or nil.
func CriterionByName(name string) Criterion { return dominance.ByName(name) }
