package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

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

// TestWriteChromeTrace renders two served requests as one process each —
// a name, the request span and the search span on thread 0 — with
// timestamps relative to the earlier request, so concurrent requests line
// up in time.
func TestWriteChromeTrace(t *testing.T) {
	ops := []*Op{
		{WhenUnixNs: 4000, LatencyNs: 1500, RequestNs: 2000, RequestID: "r-1", Endpoint: "knn", Status: 200,
			Substrate: "sstree", Algo: "HS", K: 10, Nodes: 2, Pruned: 3, DomChecks: 4},
		{WhenUnixNs: 1000, LatencyNs: 700, RequestNs: 900, RequestID: "r-2", Endpoint: "knn", Status: 200,
			Substrate: "mtree", Algo: "DF", K: 3},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, ops); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if got := len(doc.TraceEvents); got != 6 {
		t.Fatalf("got %d trace events, want 6: %s", got, buf.String())
	}
	// pid → span name → [ts, dur] in µs.
	want := map[int]map[string][2]float64{
		1: {"knn": {3, 2}, "search": {3, 1.5}},
		2: {"knn": {0, 0.9}, "search": {0, 0.7}},
	}
	for _, ev := range doc.TraceEvents {
		if ev.Tid != 0 {
			t.Errorf("event %q on tid %d, want 0", ev.Name, ev.Tid)
		}
		switch ev.Ph {
		case "M":
			if name, _ := ev.Args["name"].(string); !strings.HasPrefix(name, "request r-") {
				t.Errorf("process name %q", name)
			}
		case "X":
			w, ok := want[ev.Pid][ev.Name]
			if !ok || ev.Ts == nil || ev.Dur == nil {
				t.Fatalf("unexpected duration event %q in pid %d", ev.Name, ev.Pid)
			}
			if *ev.Ts != w[0] || *ev.Dur != w[1] {
				t.Errorf("pid %d %s span ts/dur = %v/%v µs, want %v", ev.Pid, ev.Name, *ev.Ts, *ev.Dur, w)
			}
			if ev.Pid == 1 && ev.Name == "search" && (ev.Args["substrate"] != "sstree" ||
				ev.Args["nodes_visited"] != 2.0 || ev.Args["pruned"] != 3.0 || ev.Args["dom_checks"] != 4.0) {
				t.Errorf("search span args = %v", ev.Args)
			}
		default:
			t.Errorf("unexpected ph %q", ev.Ph)
		}
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
