package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one emitted metric. The tables below are what the
// harness prints; BENCHMARK.json lists the same names and units for the
// driver (a test keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEndDefs are what a user of hyperdomd sees; each has a regression
// bound in BENCHMARK.json.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayerDefs are single-layer diagnostics (layer = package name).
var perLayerDefs = []metricDef{
	{"server.handler_p50_us", "us"},
	{"server.self_p50_us", "us"},
	{"server.self_share", "ratio"},
	{"server.allocs_per_req", "count"},
	{"server.alloc_bytes_per_req", "B"},
	{"server.gc_cycles_per_kreq", "count"},
	{"server.resp_bytes_per_req", "B"},
	{"server.dominates_p50_us", "us"},
	{"server.explain_p50_us", "us"},
	{"server.reject_p50_us", "us"},

	{"shard.search_p50_us", "us"},
	{"shard.search_p90_us", "us"},
	{"shard.self_p50_us", "us"},
	{"shard.merge_p50_us", "us"},
	{"shard.queue_wait_p50_us", "us"},
	{"shard.straggler_ratio", "ratio"},
	{"shard.allocs_per_query", "count"},
	{"shard.candidates_per_query", "count"},
	{"shard.useful_ratio", "ratio"},
	{"shard.explain_overhead_ratio", "ratio"},
	{"shard.vs_single_ratio", "ratio"},
	{"shard.build_ms", "ms"},
	{"shard.open_dir_ms", "ms"},

	{"engine.search_p50_us", "us"},
	{"engine.handoff_p50_us", "us"},
	{"engine.batch_qps_w1", "1/s"},
	{"engine.batch_qps_wN", "1/s"},
	{"engine.scaling", "ratio"},

	{"knn.packed_p50_us", "us"},
	{"knn.packed_none_p50_us", "us"},
	{"knn.packed_i8_p50_us", "us"},
	{"knn.pointer_p50_us", "us"},
	{"knn.flat_p50_us", "us"},
	{"knn.brute_p50_us", "us"},
	{"knn.tree_vs_flat_ratio", "ratio"},
	{"knn.items_scanned_per_query", "count"},
	{"knn.scan_fraction", "ratio"},
	{"knn.nodes_visited_per_query", "count"},
	{"knn.dom_checks_per_query", "count"},
	{"knn.pruned_per_query", "count"},
	{"knn.results_per_query", "count"},
	{"knn.ns_per_item_scanned", "ns"},
	{"knn.allocs_per_search", "count"},

	{"packed.freeze_ms", "ms"},
	{"packed.snapshot_bytes_per_item", "B"},
	{"packed.open_ms", "ms"},
	{"packed.load_verify_ms", "ms"},
	{"packed.coarse_prunes_per_query", "count"},

	{"vec.dist_block_ns_per_item", "ns"},
	{"vec.mindist_sphere_block_ns_per_item", "ns"},
	{"vec.mindist_sphere_block_f32_ns_per_item", "ns"},

	{"dominance.hyperbola_ns", "ns"},
	{"dominance.prepared_ns", "ns"},
	{"dominance.quartic_share", "ratio"},
	{"dominance.checks_per_result", "ratio"},
	{"poly.quartic4_ns", "ns"},

	{"sstree.bulkload_ns_per_item", "ns"},
	{"dataset.load_csv_ms", "ms"},
	{"obs.enabled_overhead_ratio", "ratio"},

	{"hyperdomd.rss_ready_mb", "MB"},
	{"hyperdomd.transport_p50_us", "us"},
	{"loadgen.closed_p50_ms", "ms"},
	{"loadgen.closed_p90_ms", "ms"},
	{"loadgen.open_r25_p90_ms", "ms"},
	{"loadgen.open_r50_p90_ms", "ms"},
	{"loadgen.open_r75_p90_ms", "ms"},
	{"loadgen.max_rate_ok", "1/s"},
	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.cpu_share", "ratio"},
	{"loadgen.window_qps_spread", "ratio"},
	{"loadgen.steal_share", "ratio"},

	{"trace.http_self_p50_us", "us"},
	{"trace.reconcile_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// environment is what a recorded number depends on besides the code.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Git        string  `json:"git"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// historyLine is one suite run: workload → metric → value (null when not
// measurable on the recording machine).
type historyLine struct {
	Env       environment                    `json:"env"`
	When      string                         `json:"when"`
	Workloads map[string]map[string]*float64 `json:"workloads"`
}

// record appends the run to the append-only history and rewrites the
// baseline as the per-metric medians of every history line recorded at
// the same git revision as this one.
func record(historyPath, baselinePath string, rec historyLine) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(historyPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	f, err = os.Open(historyPath)
	if err != nil {
		return err
	}
	defer f.Close()
	samples := map[string]map[string][]float64{}
	runs := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var h historyLine
		if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
			return fmt.Errorf("%s: %w", historyPath, err)
		}
		if h.Env.Git != rec.Env.Git {
			continue
		}
		runs++
		for w, ms := range h.Workloads {
			if samples[w] == nil {
				samples[w] = map[string][]float64{}
			}
			for name, v := range ms {
				if v != nil {
					samples[w][name] = append(samples[w][name], *v)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	base := struct {
		Git       string                        `json:"git"`
		Runs      int                           `json:"runs"`
		Workloads map[string]map[string]float64 `json:"workloads"`
	}{rec.Env.Git, runs, map[string]map[string]float64{}}
	for w, ms := range samples {
		base.Workloads[w] = map[string]float64{}
		for name, v := range ms {
			base.Workloads[w][name] = median(v)
		}
	}
	b, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(baselinePath, append(b, '\n'), 0o644)
}
