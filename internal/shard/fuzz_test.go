package shard

import (
	"math/rand"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
)

// FuzzForestVsBruteForce holds the forest walk to Definition 2 on corpora
// nobody drew by hand: up to 200 spheres in the plane — radii mixing
// ordinary values with 0 and 1e±150, centers on a coarse lattice so MaxDist
// ties are common — cut into 1–5 shards and searched once (a sharded index
// has one walk). Every answer must be knn.BruteForce's, ids and order.
func FuzzForestVsBruteForce(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(2), uint8(5), uint8(0))
	f.Add(int64(2), uint8(200), uint8(5), uint8(1), uint8(1))
	f.Add(int64(3), uint8(7), uint8(4), uint8(9), uint8(2))
	f.Add(int64(4), uint8(120), uint8(3), uint8(250), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, shards, k, radii uint8) {
		rng := rand.New(rand.NewSource(seed))
		radius := func() float64 {
			switch rng.Intn(4) & int(radii) {
			case 1:
				return 0
			case 2:
				return 1e-150
			case 3:
				return 1e150
			}
			return rng.Float64() * 3
		}
		items := make([]geom.Item, int(n)%201)
		for i := range items {
			c := []float64{float64(rng.Intn(12)), float64(rng.Intn(12))}
			items[i] = geom.Item{Sphere: geom.NewSphere(c, radius()), ID: i}
		}
		sq := geom.NewSphere([]float64{rng.Float64() * 12, rng.Float64() * 12}, radius())
		kk := 1 + int(k)
		want := knn.BruteForce(items, sq, kk, dominance.Hyperbola{}).Items
		x, err := Build(items, 2, Options{Shards: 1 + int(shards)%5, MaxFill: 8})
		if err != nil {
			t.Fatal(err)
		}
		sameItems(t, "forest", x.Search(sq, kk).Items, want)
		x.Close()
	})
}
