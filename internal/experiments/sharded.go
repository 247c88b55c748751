package experiments

import (
	"fmt"
	"runtime"
	"time"

	"hyperdom/internal/dataset"
	"hyperdom/internal/knn"
	"hyperdom/internal/shard"
	"hyperdom/internal/stats"
	"hyperdom/internal/workload"
)

// ShardedRow is one shard count of the shard-scaling experiment.
type ShardedRow struct {
	Shards    int
	OpsPerSec float64
	Scaling   float64 // versus the first shard count
}

// ShardedResult is the shard-scaling experiment: the same query
// stream answered through sharded indexes of growing shard counts.
type ShardedResult struct {
	Items      int
	Queries    int
	K          int
	GoMaxProcs int
	Rows       []ShardedRow
}

// RunSharded measures sharded kNN throughput at each requested
// shard count (e.g. 1, 2, 4). The dataset follows the paper's default
// synthetic setting and the queries are drawn from it (the Section 7.2
// query model); every shard count answers with HS(Hyper) over frozen
// packed shards, and — by the sharded index's bit-identity guarantee —
// every row computes the identical result sets, so the table isolates what
// walking more, smaller trees costs or saves. Scaling is reported against
// the first count; the query loop is sequential, and the result records
// GOMAXPROCS for context.
func RunSharded(cfg Config, shardCounts []int) ShardedResult {
	cfg = cfg.normalized()
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4}
	}
	n := cfg.scaled(DefaultSize, 1000)
	nq := cfg.scaled(2000, 64)
	ps := dataset.SyntheticCenters(n, DefaultDim, dataset.Gaussian, cfg.Seed)
	items := dataset.Spheres(ps, dataset.GaussianRadii(DefaultRadius), cfg.Seed)
	queries := workload.KNNQueries(items, nq, cfg.Seed+99)

	res := ShardedResult{Items: n, Queries: nq, K: DefaultK, GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, s := range shardCounts {
		if s < 1 {
			s = 1
		}
		x, err := shard.Build(items, DefaultDim, shard.Options{
			Shards:    s,
			Algorithm: knn.HS,
			Label:     fmt.Sprintf("bench-%d", s),
		})
		if err != nil {
			panic(err) // impossible: options are well-formed by construction
		}
		// Two timed passes, keeping the faster: the first also warms the
		// scratch arena.
		var best time.Duration
		for rep := 0; rep < 2; rep++ {
			start := time.Now()
			for _, q := range queries {
				x.Search(q, DefaultK)
			}
			if el := time.Since(start); rep == 0 || el < best {
				best = el
			}
		}
		x.Close()
		row := ShardedRow{Shards: s, OpsPerSec: float64(nq) / best.Seconds(), Scaling: 1}
		if len(res.Rows) > 0 && res.Rows[0].OpsPerSec > 0 {
			row.Scaling = row.OpsPerSec / res.Rows[0].OpsPerSec
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Table renders the shard-scaling table.
func (r ShardedResult) Table() stats.Table {
	t := stats.Table{
		Title: fmt.Sprintf("Scatter-gather shard scaling — HS(Hyper), %d items, %d queries, k=%d, GOMAXPROCS=%d",
			r.Items, r.Queries, r.K, r.GoMaxProcs),
		Header: []string{"Shards", "Queries/s", "Scaling"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.Shards),
			fmt.Sprintf("%.0f", row.OpsPerSec),
			fmt.Sprintf("%.2fx", row.Scaling))
	}
	return t
}
