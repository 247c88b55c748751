package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/sstree"
)

func TestKNNBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	d := 4
	items := make([]geom.Item, 1200)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = rng.NormFloat64() * 15
		}
		items[i] = geom.Item{ID: i, Sphere: geom.NewSphere(c, rng.Float64()*2)}
	}
	ss := sstree.New(d)
	for _, it := range items {
		ss.Insert(it)
	}
	idx := knn.WrapPacked(ss.Freeze())
	queries := KNNQueries(items, 30, 7)
	got := KNNBatch(idx, queries, 6, 3, dominance.Hyperbola{}, knn.HS)
	for i, sq := range queries {
		want := knn.Search(idx, sq, 6, dominance.Hyperbola{}, knn.HS)
		if !reflect.DeepEqual(got[i].Items, want.Items) {
			t.Fatalf("query %d: batch result differs from serial search", i)
		}
	}
}

func TestKNNQueriesDeterministic(t *testing.T) {
	items := []geom.Item{
		{ID: 1, Sphere: geom.NewSphere([]float64{1, 2}, 1)},
		{ID: 2, Sphere: geom.NewSphere([]float64{3, 4}, 2)},
	}
	a := KNNQueries(items, 10, 42)
	b := KNNQueries(items, 10, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different query workloads")
	}
}
