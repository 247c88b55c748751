package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Request-scoped tracing (ISSUE 8). A served kNN request walks the shards of
// its collection nearest first and filters under the global Sk; the TraceBuf
// spans (ISSUE 4) explain the traversal node by node, but not the request:
// which shards it opened and in what order, which was slow, how many
// candidates each added, and how far each tightened distK for the next.
// RequestTrace is that layer — a root span per HTTP request, one ShardSpan
// child per shard, and the final filter span —
// recorded by the serving layer and retained for the slowest requests in
// the Requests ring (served at /debug/requests, Chrome trace_event export
// included, linked to the per-traversal traces by trace_id).

// BoundValue is a float64 that marshals non-finite values (the +Inf a
// never-tightened distK bound reports) as JSON null instead of failing the
// whole encode.
type BoundValue float64

// MarshalJSON implements json.Marshaler.
func (v BoundValue) MarshalJSON() ([]byte, error) {
	f := float64(v)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, f, 'g', -1, 64), nil
}

// ShardSpan is one shard's slice of a request. The shards of a collection
// are searched one after another, nearest first, into one best-known list:
// Order is the shard's position in that walk, and Skipped marks a shard that
// was never opened — empty, or its root bound already beyond the running
// distK (Order is -1 then, and the work fields are zero). BoundObserved and
// BoundPublished are the list's distK on entering and on leaving the shard
// (+Inf, rendered null, while fewer than k items have been seen);
// Candidates is how many entries the shard added to the list. QueueWaitNs is
// always 0 — a shard search no longer waits in a queue — and stays in the
// payload so that clients written against the earlier shape keep decoding.
type ShardSpan struct {
	Shard          int        `json:"shard"`
	Items          int        `json:"items"` // items resident in the shard
	Order          int        `json:"order"`
	Skipped        bool       `json:"skipped"`
	LatencyNs      int64      `json:"latency_ns"`
	QueueWaitNs    int64      `json:"queue_wait_ns"`
	Candidates     int        `json:"candidates"`
	NodesVisited   int        `json:"nodes_visited"`
	ItemsScanned   int        `json:"items_scanned"`
	CoarsePrunes   uint64     `json:"coarse_prunes"`
	BoundObserved  BoundValue `json:"distk_observed"`
	BoundPublished BoundValue `json:"distk_published"`
	// TraceID links to the request's retained execution trace in
	// /debug/trace when it was sampled (SetTraceEvery), 0 otherwise; every
	// visited shard of one request carries the same ID, and the trace's node
	// ids carry the shard in their upper half.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// MergeSpan is the end of a request's search: the one final filter of
// everything the shards left in the list against the global Sk, and the
// sort of what survives.
type MergeSpan struct {
	LatencyNs  int64 `json:"latency_ns"`
	Candidates int   `json:"candidates"`
	Pruned     int   `json:"pruned"`
	Results    int   `json:"results"`
}

// RequestTrace is one served request's full trace tree. Instances are
// immutable once recorded; the ring and exporters share them by pointer.
type RequestTrace struct {
	RequestID  string `json:"request_id"`
	Collection string `json:"collection"`
	Endpoint   string `json:"endpoint"`
	Status     int    `json:"status"`
	K          int    `json:"k"`
	WhenUnixNs int64  `json:"when_unix_ns"`
	// When is WhenUnixNs as RFC3339Nano wall-clock text, so a
	// /debug/requests entry lines up with access-log lines and timeline
	// snapshots without epoch arithmetic (ISSUE 9).
	When      string `json:"when"`
	LatencyNs int64  `json:"latency_ns"`
	// ShardsVisited is how many of Shards the request actually opened; the
	// rest were skipped off their root bound.
	ShardsVisited int         `json:"shards_visited"`
	Shards        []ShardSpan `json:"shards"`
	Merge         MergeSpan   `json:"merge"`
}

// RequestSlots is the request ring capacity.
const RequestSlots = 64

// RequestRecorder retains the slowest recent requests. Unlike the seqlock
// flight recorder, the ring is mutex-guarded — requests arrive at HTTP
// rate, orders of magnitude below the per-traversal recorder, so a lock is
// cheap and keeps slot writes (which carry a slice) simple. The zero value
// is ready.
type RequestRecorder struct {
	mu    sync.Mutex
	slots [RequestSlots]*RequestTrace
	used  int
}

// Requests is the process-wide request recorder the serving layer records
// into; /debug/requests serves its dump.
var Requests = &RequestRecorder{}

// Record offers one request to the ring: admitted while the ring has free
// slots, then only when slower than the currently fastest retained request
// (which it evicts).
func (rr *RequestRecorder) Record(t *RequestTrace) {
	if t == nil {
		return
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.used < RequestSlots {
		rr.slots[rr.used] = t
		rr.used++
		return
	}
	mi := 0
	for i := 1; i < RequestSlots; i++ {
		if rr.slots[i].LatencyNs < rr.slots[mi].LatencyNs {
			mi = i
		}
	}
	if t.LatencyNs > rr.slots[mi].LatencyNs {
		rr.slots[mi] = t
	}
}

// Dump returns the retained requests sorted by descending latency.
func (rr *RequestRecorder) Dump() []*RequestTrace {
	rr.mu.Lock()
	out := make([]*RequestTrace, rr.used)
	copy(out, rr.slots[:rr.used])
	rr.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].LatencyNs != out[b].LatencyNs {
			return out[a].LatencyNs > out[b].LatencyNs
		}
		return out[a].WhenUnixNs > out[b].WhenUnixNs
	})
	return out
}

// Reset empties the ring.
func (rr *RequestRecorder) Reset() {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	for i := range rr.slots {
		rr.slots[i] = nil
	}
	rr.used = 0
}

// WriteRequestChromeTrace writes the request traces as one Chrome
// trace_event JSON document: each request becomes its own process, with the
// root request span and the merge span on thread 0 and one thread per
// visited shard. Shard spans are laid end to end in visit order and the
// merge span after the last — offsets within the search, not wall-aligned
// sub-microsecond truth; the root span carries the request's true wall
// latency. An empty set produces a valid document with "traceEvents": [].
func WriteRequestChromeTrace(w io.Writer, traces []*RequestTrace) error {
	var minWhen int64
	for i, t := range traces {
		if i == 0 || t.WhenUnixNs < minWhen {
			minWhen = t.WhenUnixNs
		}
	}
	events := make([]map[string]any, 0, 2+4*len(traces))
	for ti, t := range traces {
		pid := ti + 1
		base := float64(t.WhenUnixNs-minWhen) / 1e3
		events = append(events, map[string]any{
			"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
			"args": map[string]any{"name": fmt.Sprintf("request %s %s/%s %.3fms",
				t.RequestID, t.Collection, t.Endpoint, float64(t.LatencyNs)/1e6)},
		})
		events = append(events, map[string]any{
			"name": t.Endpoint, "cat": "request", "ph": "X", "pid": pid, "tid": 0,
			"ts": base, "dur": float64(t.LatencyNs) / 1e3,
			"args": map[string]any{
				"request_id": t.RequestID,
				"collection": t.Collection,
				"status":     t.Status,
				"k":          t.K,
				"shards":     len(t.Shards),
				"visited":    t.ShardsVisited,
			},
		})
		// startNs[o] is when the o-th visited shard began: the sum of the
		// latencies of the shards visited before it.
		startNs := make([]int64, len(t.Shards)+1)
		for _, sp := range t.Shards {
			if !sp.Skipped {
				startNs[sp.Order+1] = sp.LatencyNs
			}
		}
		for o := 1; o < len(startNs); o++ {
			startNs[o] += startNs[o-1]
		}
		for _, sp := range t.Shards {
			if sp.Skipped {
				continue
			}
			events = append(events, map[string]any{
				"name": "thread_name", "ph": "M", "pid": pid, "tid": sp.Shard + 1,
				"args": map[string]any{"name": fmt.Sprintf("shard %d", sp.Shard)},
			})
			args := map[string]any{
				"request_id":      t.RequestID,
				"order":           sp.Order,
				"candidates":      sp.Candidates,
				"nodes_visited":   sp.NodesVisited,
				"items_scanned":   sp.ItemsScanned,
				"coarse_prunes":   sp.CoarsePrunes,
				"distk_observed":  sp.BoundObserved,
				"distk_published": sp.BoundPublished,
			}
			if sp.TraceID != 0 {
				args["trace_id"] = sp.TraceID
			}
			events = append(events, map[string]any{
				"name": "shard-search", "cat": "request", "ph": "X",
				"pid": pid, "tid": sp.Shard + 1,
				"ts": base + float64(startNs[sp.Order])/1e3, "dur": float64(sp.LatencyNs) / 1e3,
				"args": args,
			})
		}
		events = append(events, map[string]any{
			"name": "merge", "cat": "request", "ph": "X", "pid": pid, "tid": 0,
			"ts": base + float64(startNs[len(t.Shards)])/1e3, "dur": float64(t.Merge.LatencyNs) / 1e3,
			"args": map[string]any{
				"request_id": t.RequestID,
				"candidates": t.Merge.Candidates,
				"pruned":     t.Merge.Pruned,
				"results":    t.Merge.Results,
			},
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
	}
	return json.NewEncoder(w).Encode(doc)
}
