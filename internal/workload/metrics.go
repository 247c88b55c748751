package workload

import (
	"hyperdom/internal/dominance"
	"hyperdom/internal/obs"
)

// Batch-level observability counters (ISSUE 2). The per-triple hot loops
// stay untouched: every counter here is fed with one atomic add per batch,
// amortizing the accounting over thousands of criterion calls.
// Per-criterion invocation totals are published under
// "workload.verdicts.<criterion name>"; their sum is the triples evaluated.
// No latency is recorded here: TimePerOp returns its measurement and the
// figure runners time what they run.
var (
	obsSerialBatches = obs.New("workload.batches_serial")
	obsTimingRuns    = obs.New("workload.timing_runs")
)

// tallyBatch records one evaluated workload batch for the given criterion.
func tallyBatch(c dominance.Criterion, n int) {
	if !obs.On() || n == 0 {
		return
	}
	obsSerialBatches.Inc()
	obs.GetOrNew("workload.verdicts." + c.Name()).Add(uint64(n))
}
