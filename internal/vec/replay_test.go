package vec_test

import (
	"slices"
	"sync"
	"testing"

	"hyperdom/internal/dataset"
	"hyperdom/internal/shard"
	"hyperdom/internal/vec"
	"hyperdom/internal/workload"
)

// TestSelectKernelsReplay serves 300 seed-1 member queries (k = 10) on
// each of the four benchmark corpora — built as bench/ builds them, seed
// 1 — and runs every float32 leaf select call the walks make through both
// pass-2 kernels: their survivor lists must be identical. FMA and lane
// order move a squared sum by about 1e-15 of itself against the select's
// 2e-9 shave, so no real call should sit where the two round apart.
func TestSelectKernelsReplay(t *testing.T) {
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
			mu           sync.Mutex
			calls, diffs int
		)
		restore := vec.SetRefineF32(func(sel []int32, sr, centers []float32, q []float64, dkqr float64) int {
			a := slices.Clone(sel)
			na := vec.RefineF32Go(a, sr, centers, q, dkqr)
			n := vec.RefineF32(sel, sr, centers, q, dkqr)
			mu.Lock()
			calls++
			if !slices.Equal(a[:na], sel[:n]) {
				if diffs++; diffs <= 3 {
					t.Errorf("%s: Go kept %v, dispatched kept %v (dkqr %v)", c.name, a[:na], sel[:n], dkqr)
				}
			}
			mu.Unlock()
			return n
		})
		for _, q := range workload.KNNQueries(items, 300, seed+2) {
			x.Search(q, 10)
		}
		restore()
		x.Close()
		t.Logf("%s: %d select calls, %d differ", c.name, calls, diffs)
		if calls == 0 {
			t.Errorf("%s: no select call reached the recorder", c.name)
		}
	}
}
