package poly

import (
	"math/rand"
	"testing"
)

// BenchmarkQuartic4 measures the allocation-free quartic core on
// well-conditioned random coefficients — the dominance operator's hot path.
func BenchmarkQuartic4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	coefs := make([][5]float64, 512)
	for i := range coefs {
		for j := range coefs[i] {
			coefs[i][j] = rng.NormFloat64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := coefs[i%len(coefs)]
		Quartic4(c[0], c[1], c[2], c[3], c[4])
	}
}

// BenchmarkQuarticFromRoots measures the solver on quartics built from
// known real roots (always four real solutions: four pieces to refine).
func BenchmarkQuarticFromRoots(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	coefs := make([][5]float64, 512)
	for i := range coefs {
		c := []float64{1}
		for k := 0; k < 4; k++ {
			root := rng.NormFloat64() * 5
			next := make([]float64, len(c)+1)
			for j, cj := range c {
				next[j] += cj
				next[j+1] -= cj * root
			}
			c = next
		}
		copy(coefs[i][:], c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := coefs[i%len(coefs)]
		Quartic4(c[0], c[1], c[2], c[3], c[4])
	}
}

// BenchmarkCubic measures the solver on cubics (a zero leading coefficient).
func BenchmarkCubic(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	coefs := make([][4]float64, 512)
	for i := range coefs {
		for j := range coefs[i] {
			coefs[i][j] = rng.NormFloat64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := coefs[i%len(coefs)]
		Quartic4(0, c[0], c[1], c[2], c[3])
	}
}
