package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// buildTrace records a tiny two-node traversal into a TraceBuf and
// finishes it: root → internal node (one child pruned) → leaf with two
// items, one dominance check, one item prune, one shadow disagreement.
func buildTrace(t *testing.T) QueryTrace {
	t.Helper()
	var b TraceBuf
	b.Begin(time.Now())
	if !b.Active() {
		t.Fatal("Begin did not activate the buffer")
	}
	inner := b.StartNode(0x10, 0.5)
	b.NodePrune(0x11, 9.5)
	leaf := b.StartNode(0x12, 0.75)
	b.DomCheck(PhaseFinal, "Hyperbola", 7, true, 2)
	b.ItemPrune(PhaseCase3, 7, 1.25)
	b.Shadow("MinMax", false, true)
	b.EndNode(leaf, 0, 2)
	b.EndNode(inner, 2, 0)
	qt := b.Finish(1500)
	if b.Active() {
		t.Fatal("Finish left the buffer active")
	}
	return qt
}

func TestTraceBufSpans(t *testing.T) {
	qt := buildTrace(t)
	if qt.ID == 0 {
		t.Error("Finish assigned trace ID 0")
	}
	if got := len(qt.Spans); got != 7 {
		t.Fatalf("got %d spans, want 7", got)
	}
	wantKinds := map[SpanKind]int{
		SpanSearch: 1, SpanNode: 2, SpanNodePrune: 1,
		SpanDomCheck: 1, SpanItemPrune: 1, SpanShadow: 1,
	}
	for kind, want := range wantKinds {
		if got := qt.CountKind(kind); got != want {
			t.Errorf("CountKind(%d) = %d, want %d", kind, got, want)
		}
	}

	root := qt.Spans[0]
	if root.Kind != SpanSearch || root.Parent != -1 {
		t.Errorf("root span = kind %d parent %d, want SpanSearch/-1", root.Kind, root.Parent)
	}
	if root.EndNs != 1500 {
		t.Errorf("root EndNs = %d, want the latency Finish was given (1500)", root.EndNs)
	}

	// Nesting: inner node under root, prune event and leaf under inner,
	// item-level events under the leaf.
	inner, leaf := qt.Spans[1], qt.Spans[3]
	if inner.Parent != 0 || inner.NodeID != 0x10 {
		t.Errorf("inner span parent=%d node=%#x, want 0/0x10", inner.Parent, inner.NodeID)
	}
	if prune := qt.Spans[2]; prune.Parent != 1 || prune.MinDist != 9.5 {
		t.Errorf("node-prune parent=%d mindist=%v, want 1/9.5", prune.Parent, prune.MinDist)
	}
	if leaf.Parent != 1 || leaf.Items != 2 {
		t.Errorf("leaf span parent=%d items=%d, want 1/2", leaf.Parent, leaf.Items)
	}
	for i := 4; i <= 6; i++ {
		if qt.Spans[i].Parent != 3 {
			t.Errorf("span %d parent = %d, want leaf (3)", i, qt.Spans[i].Parent)
		}
	}
	if dc := qt.Spans[4]; !dc.Verdict || dc.ItemID != 7 || dc.Arg != 2 || dc.Phase != PhaseFinal || dc.Label != "Hyperbola" {
		t.Errorf("dom-check span = %+v, want Hyperbola verdict/item 7/2 quartics/final", dc)
	}
	if ip := qt.Spans[5]; ip.Phase != PhaseCase3 || PhaseName(ip.Phase) != "case3" || PhaseName(PhaseFinal) != "final" {
		t.Errorf("item-prune span = %+v, want case3", ip)
	}
}

func TestTraceSampling(t *testing.T) {
	defer SetTraceEvery(0)

	SetTraceEvery(0)
	if TraceEnabled() {
		t.Error("TraceEnabled with period 0")
	}
	for i := 0; i < 100; i++ {
		if SampleTrace() {
			t.Fatal("SampleTrace fired while disabled")
		}
	}

	SetTraceEvery(1)
	for i := 0; i < 10; i++ {
		if !SampleTrace() {
			t.Fatal("SampleTrace(every=1) declined a search")
		}
	}

	SetTraceEvery(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if SampleTrace() {
			hits++
		}
	}
	if hits != 100 {
		t.Errorf("every=4 sampled %d of 400", hits)
	}
}

// chromeDoc decodes a trace_event export for assertions.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   *float64       `json:"ts"`
		Dur  *float64       `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTrace(t *testing.T) {
	op := &Op{WhenUnixNs: 1, LatencyNs: 1500, Substrate: "sstree", Algo: "HS", K: 10, Nodes: 2, Trace: buildTrace(t)}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Op{op}); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// The process name + 7 spans, all on thread 0: no forest, no shards.
	if got := len(doc.TraceEvents); got != 8 {
		t.Fatalf("got %d trace events, want 8", got)
	}
	var phX, phI, phM int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			phX++
			if ev.Dur == nil || ev.Ts == nil {
				t.Errorf("duration event %q missing ts/dur", ev.Name)
			}
		case "i":
			phI++
		case "M":
			phM++
		default:
			t.Errorf("unexpected ph %q", ev.Ph)
		}
	}
	if phX != 3 || phI != 4 || phM != 1 {
		t.Errorf("event phases X/i/M = %d/%d/%d, want 3/4/1", phX, phI, phM)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Tid != 0 || ev.Pid != 1 {
			t.Errorf("event %q on pid/tid %d/%d, want 1/0", ev.Name, ev.Pid, ev.Tid)
		}
		if ev.Name == "search" && (ev.Args["substrate"] != "sstree" || ev.Args["subtree_prunes"] != 1.0 || *ev.Dur != 1.5) {
			t.Errorf("search span = %+v dur %v", ev.Args, *ev.Dur)
		}
	}
	if !strings.Contains(buf.String(), `"shadow-disagree"`) {
		t.Error("export lost the shadow-disagreement event")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export is not valid JSON: %v", err)
	}
	events, ok := doc["traceEvents"]
	if !ok {
		t.Fatal("empty export lacks traceEvents")
	}
	if strings.TrimSpace(string(events)) == "null" {
		t.Fatal("empty export serialized traceEvents as null, want []")
	}
}

func TestFlightTraceLinkage(t *testing.T) {
	var r SlowRing
	qt := buildTrace(t)
	r.Record(&Op{WhenUnixNs: 5, LatencyNs: 1500, K: 10, Nodes: 2, Trace: qt})
	r.Record(&Op{WhenUnixNs: 5, LatencyNs: 1510, K: 3})

	traced := r.Traced()
	if len(traced) != 1 || traced[0].Trace.ID != qt.ID || len(traced[0].Trace.Spans) != len(qt.Spans) {
		t.Fatalf("Traced() = %v, want exactly the sampled op", traced)
	}

	recs := SlowRecords(r.Dump())
	if len(recs) != 2 {
		t.Fatalf("Dump len = %d, want 2", len(recs))
	}
	// Dump is latency-descending: the traced op is second.
	if recs[0].TraceID != 0 {
		t.Errorf("untraced op has TraceID %d", recs[0].TraceID)
	}
	if recs[1].TraceID != qt.ID {
		t.Errorf("traced op TraceID = %d, want %d", recs[1].TraceID, qt.ID)
	}

	// Traced sorts by descending latency.
	qt2 := buildTrace(t)
	r.Record(&Op{WhenUnixNs: 5, LatencyNs: 1520, Trace: qt2})
	traced = r.Traced()
	if len(traced) != 2 || traced[0].Trace.ID != qt2.ID {
		t.Fatalf("Traced() order wrong: got %d ops", len(traced))
	}

	r.Reset()
	if got := r.Traced(); len(got) != 0 {
		t.Errorf("Reset left %d traces behind", len(got))
	}
}
