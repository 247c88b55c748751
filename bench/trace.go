package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer: the boundary's name, the span that
// caused it, and the request it belongs to. Spans are recorded by the
// harness around calls into each layer's exported functions; spans inside
// the program are a later change.
type span struct {
	name, parent string
	req          int
	start, dur   time.Duration // start is relative to the tracer's origin
}

// tracer keeps spans in memory and writes them out once, at the end.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// timed runs f as span `name` of request req and returns its duration in
// microseconds. A nil tracer only times.
func (t *tracer) timed(name, parent string, req int, f func()) float64 {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	if t != nil {
		t.spans = append(t.spans, span{name, parent, req, t0.Sub(t.origin), d})
	}
	return float64(d.Nanoseconds()) / 1e3
}

// add records a span whose timing a layer reported itself (the shard and
// merge spans of shard.Explain), placed relative to its parent's start.
func (t *tracer) add(name, parent string, req int, start, dur time.Duration) {
	t.spans = append(t.spans, span{name, parent, req, start, dur})
}

// selfTimeUs is a span's duration minus the part of it its children
// cover. Children that run in parallel cover only as long as the slowest.
func selfTimeUs(spanUs float64, sequentialChildrenUs []float64, parallelChildrenUs []float64) float64 {
	cover := 0.0
	for _, c := range sequentialChildrenUs {
		cover += c
	}
	slowest := 0.0
	for _, c := range parallelChildrenUs {
		if c > slowest {
			slowest = c
		}
	}
	return spanUs - cover - slowest
}

// traceEvent is the Chrome trace_event "complete" event (ph "X"), which
// Perfetto and chrome://tracing load directly.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write dumps the spans as a Chrome trace: one thread lane per boundary,
// request id and parent span in args.
func (t *tracer) write(path string) error {
	lanes := map[string]int{}
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		lane, ok := lanes[s.name]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.name] = lane
		}
		events = append(events, traceEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: lane,
			Args: map[string]any{"request": s.req, "parent": s.parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
