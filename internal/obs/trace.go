package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// Per-query execution tracing (ISSUE 4). A traced search records a full
// span tree — one span per index-node visit plus instant events for every
// prune decision, dominance check and shadow-evaluation disagreement — into
// a TraceBuf owned by the search's scratch arena. Tracing is tail-sampled
// twice over: the record path only runs for 1-in-N searches (SetTraceEvery),
// and a finished trace survives only while its op stays among the SlowSlots
// slowest in the Slow ring, so steady state retains the traces that explain
// the latency tail. With sampling disabled the only
// cost left in the hot path is a nil check per instrumentation site and one
// atomic load per search — no clock reads, no allocation (gated by the knn
// package's TestObsOverheadTracing).
//
// Traces export as Chrome trace_event JSON (WriteChromeTrace, the
// /debug/trace endpoint, and the -trace flag of the benchmark commands) and
// open directly in chrome://tracing or https://ui.perfetto.dev.

// SpanKind classifies one span (or instant event) of a query trace.
type SpanKind uint8

const (
	// SpanSearch is the root span covering the whole query.
	SpanSearch SpanKind = iota
	// SpanNode covers one index-node visit: MinDist on entry, child and
	// item counts on exit. Node spans nest by traversal structure.
	SpanNode
	// SpanNodePrune is an instant event: a subtree discarded because its
	// MinDist exceeded distk (the Lemma 9 / Case 3 bound at node level).
	SpanNodePrune
	// SpanDomCheck is an instant event: one dominance-criterion invocation,
	// with the criterion label, phase, verdict and quartic-solve count.
	SpanDomCheck
	// SpanItemPrune is an instant event: one data item discarded, phase
	// saying which of the Section 6 cases fired. Item-prune events
	// correspond one-to-one with the knn.pruned counter.
	SpanItemPrune
	// SpanShadow is an instant event: a shadow-evaluated criterion
	// disagreed with Hyperbola on this check (the paper's Table 1
	// correct/sound distinction caught in the act).
	SpanShadow
)

// Phases of the Section 6 candidate filter, recorded on SpanDomCheck and
// SpanItemPrune events. The kNN search takes no verdict against an interim
// Sk, so there are two.
const (
	// PhaseCase3 is the MinDist > distk discard (Lemma 9).
	PhaseCase3 uint8 = iota + 1
	// PhaseFinal is the Definition 2 filter against the final Sk: the
	// criterion's one call per candidate.
	PhaseFinal
)

// PhaseName returns the exposition name of a filter phase.
func PhaseName(p uint8) string {
	switch p {
	case PhaseCase3:
		return "case3"
	case PhaseFinal:
		return "final"
	}
	return ""
}

// Span is one node of a query's trace tree. All fields are scalars, or a
// criterion name (a package-level constant), so recording never allocates
// beyond the buffer's amortized growth, and a pooled TraceBuf retains no
// references into the index. Instant events have StartNs == EndNs.
type Span struct {
	Parent   int32 // index of the parent span; -1 for the root
	Kind     SpanKind
	Phase    uint8  // PhaseCase3 or PhaseFinal on DomCheck/ItemPrune events
	Verdict  bool   // DomCheck: the criterion's verdict; Shadow: the disagreeing criterion's verdict
	Label    string // criterion (DomCheck/Shadow); unused otherwise
	NodeID   uint64 // opaque node identity (Node/NodePrune)
	ItemID   int64  // data item ID (DomCheck/ItemPrune); -1 when absent
	StartNs  int64  // nanoseconds since the root span started
	EndNs    int64
	MinDist  float64 // MinDist to the query (Node/NodePrune)
	Children int32   // children expanded (internal Node spans)
	Items    int32   // items scanned (leaf Node spans)
	Arg      uint64  // kind-specific: quartic solves (DomCheck), Hyperbola verdict (Shadow)
}

// TraceBuf accumulates one query's spans. It is owned by exactly one
// goroutine (the kNN scratch arena keeps one per search); the buffer is
// reused across traced queries, so steady-state recording costs only the
// clock reads. The zero value is ready: Begin activates it.
type TraceBuf struct {
	spans  []Span
	start  time.Time
	cur    int32 // current open span — the parent instant events attach to
	active bool
}

// Active reports whether a trace is being recorded.
func (b *TraceBuf) Active() bool { return b.active }

// Begin resets the buffer and opens the root SpanSearch span with the given
// start time (shared with the search's latency measurement, so trace
// timestamps line up with the op's).
func (b *TraceBuf) Begin(start time.Time) {
	b.spans = b.spans[:0]
	b.start = start
	b.cur = 0
	b.active = true
	b.spans = append(b.spans, Span{Parent: -1, Kind: SpanSearch, ItemID: -1})
}

func (b *TraceBuf) now() int64 { return time.Since(b.start).Nanoseconds() }

// StartNode opens a node-visit span under the current span and makes it
// current. Pair with EndNode.
func (b *TraceBuf) StartNode(nodeID uint64, minDist float64) int32 {
	i := int32(len(b.spans))
	b.spans = append(b.spans, Span{
		Parent: b.cur, Kind: SpanNode, ItemID: -1,
		NodeID: nodeID, MinDist: minDist, StartNs: b.now(),
	})
	b.cur = i
	return i
}

// EndNode closes a node-visit span with its fan-out accounting and restores
// the parent as current.
func (b *TraceBuf) EndNode(i, children, items int32) {
	sp := &b.spans[i]
	sp.EndNs = b.now()
	sp.Children = children
	sp.Items = items
	b.cur = sp.Parent
}

// NodePrune records a subtree discarded by the distk bound.
func (b *TraceBuf) NodePrune(nodeID uint64, minDist float64) {
	t := b.now()
	b.spans = append(b.spans, Span{
		Parent: b.cur, Kind: SpanNodePrune, ItemID: -1,
		NodeID: nodeID, MinDist: minDist, StartNs: t, EndNs: t,
	})
}

// DomCheck records one dominance-criterion invocation: which phase asked,
// which criterion answered, its verdict, and how many quartic solves the
// check cost.
func (b *TraceBuf) DomCheck(phase uint8, crit string, itemID int64, verdict bool, quartics uint64) {
	t := b.now()
	b.spans = append(b.spans, Span{
		Parent: b.cur, Kind: SpanDomCheck, Phase: phase, Label: crit,
		ItemID: itemID, Verdict: verdict, Arg: quartics, StartNs: t, EndNs: t,
	})
}

// ItemPrune records one data item discarded by the given phase. These
// events correspond one-to-one with the knn.pruned counter.
func (b *TraceBuf) ItemPrune(phase uint8, itemID int64, minDist float64) {
	t := b.now()
	b.spans = append(b.spans, Span{
		Parent: b.cur, Kind: SpanItemPrune, Phase: phase,
		ItemID: itemID, MinDist: minDist, StartNs: t, EndNs: t,
	})
}

// Shadow records a shadow-evaluation disagreement: crit answered verdict
// while Hyperbola answered hyperbola.
func (b *TraceBuf) Shadow(crit string, verdict, hyperbola bool) {
	t := b.now()
	var arg uint64
	if hyperbola {
		arg = 1
	}
	b.spans = append(b.spans, Span{
		Parent: b.cur, Kind: SpanShadow, Label: crit, ItemID: -1,
		Verdict: verdict, Arg: arg, StartNs: t, EndNs: t,
	})
}

// Cancel abandons an in-flight trace (a search that turned out to have
// nothing to traverse), keeping the buffer for reuse.
func (b *TraceBuf) Cancel() {
	b.active = false
	b.spans = b.spans[:0]
}

// traceIDs hands out process-unique trace IDs.
var traceIDs atomic.Uint64

// Finish closes the root span at the search's latency and freezes the
// buffer into an immutable QueryTrace for the search's Op. The buffer is
// reset for reuse; only this copy allocates, and only for sampled queries.
func (b *TraceBuf) Finish(latencyNs int64) QueryTrace {
	b.spans[0].EndNs = latencyNs
	qt := QueryTrace{ID: traceIDs.Add(1), Spans: append([]Span(nil), b.spans...)}
	b.active = false
	b.spans = b.spans[:0]
	return qt
}

// QueryTrace is the node-level part of a sampled Op: the span tree and the
// ID the views link it by. The zero value (ID 0) means "not sampled".
// Nothing mutates Spans after Finish.
type QueryTrace struct {
	ID    uint64
	Spans []Span
}

// CountKind returns how many spans of the given kind the trace holds.
func (t *QueryTrace) CountKind(k SpanKind) int {
	n := 0
	for i := range t.Spans {
		if t.Spans[i].Kind == k {
			n++
		}
	}
	return n
}

// Sampling gate. traceEvery == 0 disables tracing entirely; N > 0 samples
// every Nth search process-wide. The decision costs one atomic load when
// disabled and one atomic add when enabled.
var (
	traceEvery atomic.Int64
	traceSeq   atomic.Uint64
)

// SetTraceEvery sets the sampling period: every Nth search records a full
// trace. 0 (the default) disables tracing; 1 traces every search.
func SetTraceEvery(n int) {
	if n < 0 {
		n = 0
	}
	traceEvery.Store(int64(n))
}

// TraceEnabled reports whether tracing is on at all.
func TraceEnabled() bool { return traceEvery.Load() > 0 }

// SampleTrace decides whether the calling search should record a trace:
// false immediately when tracing is disabled, else true for every Nth call
// process-wide.
func SampleTrace() bool {
	n := traceEvery.Load()
	if n <= 0 {
		return false
	}
	return traceSeq.Add(1)%uint64(n) == 0
}

// spanName returns the Chrome event name for a node-level span.
func spanName(sp *Span) string {
	switch sp.Kind {
	case SpanNode:
		if sp.Children == 0 && sp.Items > 0 {
			return "leaf"
		}
		return "node"
	case SpanNodePrune:
		return "prune-subtree"
	case SpanDomCheck:
		return "domcheck"
	case SpanItemPrune:
		return "prune-item"
	case SpanShadow:
		return "shadow-disagree"
	}
	return fmt.Sprintf("span(%d)", int(sp.Kind))
}

// spanArgs builds the Chrome args object for a node-level span.
func spanArgs(sp *Span) map[string]any {
	args := map[string]any{}
	switch sp.Kind {
	case SpanNode, SpanNodePrune:
		args["node"] = fmt.Sprintf("0x%x", sp.NodeID)
		args["mindist"] = sp.MinDist
		if sp.Kind == SpanNode {
			args["children"] = sp.Children
			args["items"] = sp.Items
		}
	case SpanDomCheck:
		args["criterion"] = sp.Label
		args["phase"] = PhaseName(sp.Phase)
		args["item"] = sp.ItemID
		args["dominated"] = sp.Verdict
		args["quartic_solves"] = sp.Arg
	case SpanItemPrune:
		args["phase"] = PhaseName(sp.Phase)
		args["item"] = sp.ItemID
		args["mindist"] = sp.MinDist
	case SpanShadow:
		args["criterion"] = sp.Label
		args["verdict"] = sp.Verdict
		args["hyperbola"] = sp.Arg == 1
	}
	return args
}

// WriteChromeTrace writes the ops as one Chrome trace_event JSON document,
// the only writer of that format. Each op is its own process. Thread 0
// carries the request span (named after the endpoint) when a server wrapped
// the op, the search span, and the merge span when it walked a forest; each
// visited shard is a thread of its own with a shard-search span, laid end to
// end in visit order — offsets within the search, not wall-aligned truth;
// the outermost span carries the true wall latency. A sampled op adds its
// node-visit spans and its prune, dominance-check and shadow-disagreement
// instants, in a forest under the shard whose tag (tree index + 1) their
// NodeID carries in its upper half; an instant follows its parent span.
// Timestamps are microseconds relative to the earliest op, so concurrent
// operations line up in time. An empty set produces a valid document with
// "traceEvents": [].
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
		// span appends one event: a duration, or an instant when durNs < 0.
		span := func(name, cat string, tid int, startNs, durNs int64, args map[string]any) {
			ev := map[string]any{
				"name": name, "cat": cat, "pid": pid, "tid": tid,
				"ts": base + float64(startNs)/1e3, "args": args,
			}
			if durNs < 0 {
				ev["ph"], ev["s"] = "i", "t"
			} else {
				ev["ph"], ev["dur"] = "X", float64(durNs)/1e3
			}
			events = append(events, ev)
		}

		if o.RequestID != "" {
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
		} else {
			meta("process_name", 0, fmt.Sprintf("q%d %s/%s k=%d %.3fms",
				o.Trace.ID, o.Substrate, o.Algo, o.K, float64(o.LatencyNs)/1e6))
		}
		span("search", "hyperdom", 0, 0, o.LatencyNs, map[string]any{
			"substrate":      o.Substrate,
			"algo":           o.Algo,
			"k":              o.K,
			"nodes_visited":  o.Nodes,
			"pruned":         o.Pruned,
			"dom_checks":     o.DomChecks,
			"subtree_prunes": o.Trace.CountKind(SpanNodePrune),
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
				args := map[string]any{
					"request_id":      o.RequestID,
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
				span("shard-search", "request", sp.Shard+1, startNs[sp.Order], sp.LatencyNs, args)
			}
			span("merge", "request", 0, startNs[len(o.Shards)], o.Merge.LatencyNs, map[string]any{
				"request_id": o.RequestID,
				"candidates": o.Merge.Candidates,
				"pruned":     o.Merge.Pruned,
				"results":    o.Merge.Results,
			})
		}

		// Spans[0] is the root the search span above already drew; parents
		// precede their children, so one pass settles every thread.
		tids := make([]int, len(o.Trace.Spans))
		for i := 1; i < len(tids); i++ {
			sp := &o.Trace.Spans[i]
			switch {
			case len(o.Shards) == 0:
			case sp.Kind == SpanNode || sp.Kind == SpanNodePrune:
				tids[i] = int(sp.NodeID >> 32)
			default:
				tids[i] = tids[sp.Parent]
			}
			durNs := int64(-1)
			if sp.Kind == SpanNode {
				durNs = sp.EndNs - sp.StartNs
			}
			span(spanName(sp), "hyperdom", tids[i], sp.StartNs, durNs, spanArgs(sp))
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
	})
}

// WriteChromeTraceFile writes the ring's sampled ops to path, slowest first
// — the -trace flag's exit path.
func WriteChromeTraceFile(path string) (int, error) {
	ops := Slow.Traced()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := WriteChromeTrace(f, ops); err != nil {
		f.Close()
		return 0, err
	}
	return len(ops), f.Close()
}
