package vec_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"hyperdom/internal/dataset"
	"hyperdom/internal/shard"
	"hyperdom/internal/vec"
	"hyperdom/internal/workload"
)

// TestKernelsReplay serves 300 seed-1 member queries (k = 10) on each of
// the four benchmark corpora — built as bench/ builds them, seed 1 — and
// runs every call the walks make to the two dispatched kernels, the
// float32 leaf select's pass 2 and ChildKeysBlock, through the Go kernel
// and the dispatched one of each. Float32 leaf selects must keep identical
// survivor lists: FMA and lane order move a squared sum by about 1e-15 of
// itself against the select's 2e-9 shave, so no real call should sit
// where the two round apart. ChildKeysBlock calls must write bit-identical
// keys and reject counts: its kernels round alike by construction.
func TestKernelsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four corpora of up to 100k items")
	}
	corpora := []struct {
		name   string
		n, d   int
		mu     float64
		shards int
	}{
		{"thin_d4", 100000, 4, 0.2, 2},
		{"scan_d10", 100000, 10, 1, 2},
		{"fat_d10", 10000, 10, 10, 2},
		{"mixed_snap", 50000, 6, 2, 4},
	}
	const seed = 1
	for _, c := range corpora {
		items := dataset.Spheres(dataset.SyntheticCenters(c.n, c.d, dataset.Gaussian, seed),
			dataset.GaussianRadii(c.mu), seed+1)
		x, err := shard.Build(items, c.d, shard.Options{Shards: c.shards})
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu                   sync.Mutex
			selects, selectDiffs int
			keys, keyDiffs       int
		)
		restoreSelect := vec.SetRefineF32(func(sel []int32, sr, centers []float32, q []float64, dkqr float64) int {
			a := slices.Clone(sel)
			na := vec.RefineF32Go(a, sr, centers, q, dkqr)
			n := vec.RefineF32(sel, sr, centers, q, dkqr)
			mu.Lock()
			selects++
			if !slices.Equal(a[:na], sel[:n]) {
				if selectDiffs++; selectDiffs <= 3 {
					t.Errorf("%s: Go kept %v, dispatched kept %v (dkqr %v)", c.name, a[:na], sel[:n], dkqr)
				}
			}
			mu.Unlock()
			return n
		})
		restoreKeys := vec.SetChildKeys(func(dst, centers, radii []float64, box []float32, q []float64, qr, dk float64) int {
			a := slices.Clone(dst)
			ra := vec.ChildKeysGo(a, centers, radii, box, q, qr, dk)
			r := vec.ChildKeys(dst, centers, radii, box, q, qr, dk)
			mu.Lock()
			keys++
			if ra != r || !slices.EqualFunc(a, dst, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				if keyDiffs++; keyDiffs <= 3 {
					t.Errorf("%s: scalar keys %v (%d rejected), dispatched %v (%d) (qr %v, dk %v)", c.name, a, ra, dst, r, qr, dk)
				}
			}
			mu.Unlock()
			return r
		})
		for _, q := range workload.KNNQueries(items, 300, seed+2) {
			x.Search(q, 10)
		}
		restoreSelect()
		restoreKeys()
		x.Close()
		t.Logf("%s: %d select calls, %d differ; %d child-key calls, %d differ", c.name, selects, selectDiffs, keys, keyDiffs)
		if selects == 0 {
			t.Errorf("%s: no select call reached the recorder", c.name)
		}
		if keys == 0 {
			t.Errorf("%s: no child-key call reached the recorder", c.name)
		}
	}
}
