package workload

import (
	"hyperdom/internal/dominance"
	"hyperdom/internal/obs"
)

// Batch-level observability counters (ISSUE 2). The per-triple hot loops
// stay untouched: every counter here is fed with one atomic add per batch,
// amortizing the accounting over thousands of criterion calls.
// Per-criterion invocation totals are published under
// "workload.verdicts.<criterion name>".
var (
	obsTriples       = obs.New("workload.triples_evaluated")
	obsSerialBatches = obs.New("workload.batches_serial")
	obsTimingRuns    = obs.New("workload.timing_runs")
)

// histSerialBatch takes one sample per whole batch (ISSUE 3) — never per
// triple, for the same reason.
var histSerialBatch = obs.NewHistogram("workload.batch_latency", `path="serial"`)

// tallyBatch records one evaluated workload batch for the given criterion.
func tallyBatch(c dominance.Criterion, n int) {
	if !obs.On() || n == 0 {
		return
	}
	obsSerialBatches.Inc()
	obsTriples.Add(uint64(n))
	obs.GetOrNew("workload.verdicts." + c.Name()).Add(uint64(n))
}
