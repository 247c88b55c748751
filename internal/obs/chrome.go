package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteChromeTrace writes served ops — ones a server wrapped, as
// SlowRing.Served returns them — as one Chrome trace_event JSON document,
// the /debug/requests?format=chrome view. Each op is its own process.
// Thread 0 carries the request span (named after the endpoint), the search
// span, and the merge span when it walked a forest; each visited shard is a thread of its own with a shard-search span, laid end to
// end in visit order — offsets within the search, not wall-aligned truth;
// the outermost span carries the true wall latency. Timestamps are
// microseconds relative to the earliest op, so concurrent operations line up
// in time. An empty set produces a valid document with "traceEvents": [].
func WriteChromeTrace(w io.Writer, ops []*Op) error {
	var minWhen int64
	for i, o := range ops {
		if i == 0 || o.WhenUnixNs < minWhen {
			minWhen = o.WhenUnixNs
		}
	}
	events := make([]map[string]any, 0, 8*len(ops))
	for oi, o := range ops {
		pid := oi + 1
		base := float64(o.WhenUnixNs-minWhen) / 1e3
		meta := func(kind string, tid int, name string) {
			events = append(events, map[string]any{
				"name": kind, "ph": "M", "pid": pid, "tid": tid, "args": map[string]any{"name": name},
			})
		}
		span := func(name, cat string, tid int, startNs, durNs int64, args map[string]any) {
			events = append(events, map[string]any{
				"name": name, "cat": cat, "ph": "X", "pid": pid, "tid": tid,
				"ts": base + float64(startNs)/1e3, "dur": float64(durNs) / 1e3, "args": args,
			})
		}

		meta("process_name", 0, fmt.Sprintf("request %s %s/%s %.3fms",
			o.RequestID, o.Collection, o.Endpoint, float64(o.RequestNs)/1e6))
		span(o.Endpoint, "request", 0, 0, o.RequestNs, map[string]any{
			"request_id": o.RequestID,
			"collection": o.Collection,
			"status":     o.Status,
			"k":          o.K,
			"shards":     len(o.Shards),
			"visited":    o.Visited(),
		})
		span("search", "hyperdom", 0, 0, o.LatencyNs, map[string]any{
			"substrate":     o.Substrate,
			"algo":          o.Algo,
			"k":             o.K,
			"nodes_visited": o.Nodes,
			"pruned":        o.Pruned,
			"dom_checks":    o.DomChecks,
		})

		if len(o.Shards) > 0 {
			// startNs[v] is when the v-th visited shard began: the sum of
			// the latencies of the shards visited before it.
			startNs := make([]int64, len(o.Shards)+1)
			for _, sp := range o.Shards {
				if !sp.Skipped {
					startNs[sp.Order+1] = sp.LatencyNs
				}
			}
			for v := 1; v < len(startNs); v++ {
				startNs[v] += startNs[v-1]
			}
			for _, sp := range o.Shards {
				if sp.Skipped {
					continue
				}
				meta("thread_name", sp.Shard+1, fmt.Sprintf("shard %d", sp.Shard))
				span("shard-search", "request", sp.Shard+1, startNs[sp.Order], sp.LatencyNs, map[string]any{
					"request_id":      o.RequestID,
					"order":           sp.Order,
					"candidates":      sp.Candidates,
					"nodes_visited":   sp.NodesVisited,
					"items_scanned":   sp.ItemsScanned,
					"coarse_prunes":   sp.CoarsePrunes,
					"distk_observed":  sp.BoundObserved,
					"distk_published": sp.BoundPublished,
				})
			}
			span("merge", "request", 0, startNs[len(o.Shards)], o.Merge.LatencyNs, map[string]any{
				"request_id": o.RequestID,
				"candidates": o.Merge.Candidates,
				"pruned":     o.Merge.Pruned,
				"results":    o.Merge.Results,
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
	})
}
