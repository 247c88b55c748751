package main

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hyperdom/internal/dataset"
	"hyperdom/internal/knn"
	"hyperdom/internal/server"
	"hyperdom/internal/shard"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	asc := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, err := percentile(asc(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted: only 9 lie beyond rank 990")
	}
	v, err := percentile(asc(1000), 0.99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(asc(19), 0.50); err == nil {
		t.Error("p50 of 19 samples accepted")
	}
	if v, err := percentile(asc(20), 0.50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := pctl("x", nil, 0.5); err == nil {
		t.Error("percentile of no samples accepted")
	}
}

// A 50 ms stall in the first request of a one-worker open loop must be
// charged to every request that came due during it: timing from the send
// instant (coordinated omission) would show one slow request.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	res := openLoop(func(_, i int) bool {
		if i == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		return true
	}, 1000, 200*time.Millisecond, 1)
	if res.scheduled != 200 {
		t.Fatalf("scheduled %d sends, want 200", res.scheduled)
	}
	slow, late := 0, 0
	for i := range res.latMs {
		if res.latMs[i] > 10 {
			slow++
		}
		if res.lateMs[i] > 10 {
			late++
		}
	}
	// Requests due in the first ~40 ms waited more than 10 ms.
	if slow < 30 {
		t.Errorf("%d requests slower than 10 ms from their due time, want ≥ 30", slow)
	}
	if late < 30 {
		t.Errorf("%d sends later than 10 ms, want ≥ 30", late)
	}
	if res.latMs[0] < 50 {
		t.Errorf("stalled request took %.1f ms, want ≥ 50", res.latMs[0])
	}
	// The worker caught up long before the step ended; the last send or
	// two may still straddle the end on a busy machine.
	if res.failed != 0 || res.backlogEnd > 5 {
		t.Errorf("failed %d, backlog %d; want 0 and at most a straggler", res.failed, res.backlogEnd)
	}
}

func TestStepOK(t *testing.T) {
	ok := openResult{scheduled: 100}
	if !stepOK(ok, 4, 5, 100) {
		t.Error("step within the limit and with no backlog rejected")
	}
	if stepOK(ok, 6, 5, 100) {
		t.Error("tail over the limit accepted")
	}
	// 100/s × 5 ms allows half a request in flight (+1 of slack).
	if stepOK(openResult{scheduled: 100, backlogEnd: 3}, 4, 5, 100) {
		t.Error("growing backlog accepted")
	}
	if stepOK(openResult{scheduled: 100, failed: 1}, 4, 5, 100) {
		t.Error("failed request accepted")
	}
}

func TestSelfTime(t *testing.T) {
	// 100 µs span, 10 µs sequential child, parallel children 30/50/40 µs:
	// the parallel ones cover only as long as the slowest.
	if got := selfTimeUs(100, []float64{10}, []float64{30, 50, 40}); got != 40 {
		t.Errorf("self time %v, want 40", got)
	}
	if got := selfTimeUs(100, nil, nil); got != 100 {
		t.Errorf("childless self time %v, want 100", got)
	}
	if got := pairedDiff([]float64{5, 7}, []float64{2, 3}); !reflect.DeepEqual(got, []float64{3, 4}) {
		t.Errorf("pairedDiff %v", got)
	}
}

func TestWindowRatesAndMedian(t *testing.T) {
	// 4 s cut in four: 2, 0, 1 and 3 completions; one beyond the span.
	rates := windowRates([]float64{0.1, 0.9, 2.5, 3.0, 3.5, 3.99, 4.2}, 4, 4)
	if want := []float64{2, 0, 1, 3}; !reflect.DeepEqual(rates, want) {
		t.Errorf("rates %v, want %v", rates, want)
	}
	if m := median(rates); m != 1.5 {
		t.Errorf("median %v, want 1.5", m)
	}
	if m := median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("median %v, want 5", m)
	}
	if s := relSpread(rates); s != 2 {
		t.Errorf("relSpread %v, want (3-0)/1.5", s)
	}
}

func TestProcParsing(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := []byte("4242 (hyper (domd) x) S 1 4242 4242 0 -1 4194560 901 0 0 0 1234 66 0 0 20 0 9 0 100 1000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0")
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 13.0 {
		t.Errorf("parseStatCPU = %v, %v; want 13.00 s (1234+66 ticks)", cpu, err)
	}
	if _, err := parseStatCPU([]byte("1 (x) S 1 2")); err == nil {
		t.Error("truncated stat accepted")
	}
	status := []byte("Name:\thyperdomd\nVmPeak:\t  999 kB\nVmHWM:\t   74704 kB\nVmRSS:\t   61440 kB\n")
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 74704 {
		t.Errorf("VmHWM = %v, %v", kb, err)
	}
	if kb, err := parseStatusKB(status, "VmRSS"); err != nil || kb != 61440 {
		t.Errorf("VmRSS = %v, %v", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	busy, steal, err := parseHostCPU([]byte("cpu  100 5 40 800 20 0 5 50 7 0\ncpu0 1 2 3\n"))
	if err != nil || busy != 1.5 || steal != 0.5 {
		t.Errorf("parseHostCPU = busy %v steal %v, %v; want 1.5, 0.5", busy, steal, err)
	}
	if _, _, err := parseHostCPU([]byte("intr 1 2 3\n")); err == nil {
		t.Error("malformed /proc/stat accepted")
	}
}

func TestSpeedIsLoadgenCPUAgainstReference(t *testing.T) {
	s := spec{seedOwnMs: 0.2}
	cs := closedStats{ownPerReqMs: 0.25}
	if got := cs.speed(&target{external: true}, s); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("speed = %v, want 0.8: the load generator took 0.25 ms per request where the reference is 0.2", got)
	}
	// In process the harness's CPU time includes the server's, so it says
	// nothing about the machine.
	if got := cs.speed(&target{external: false}, s); got != 1 {
		t.Errorf("in-process speed = %v, want 1", got)
	}
}

func TestRequestListDeterministic(t *testing.T) {
	for _, s := range workloads {
		s = s.quick()
		items := s.corpus(7)
		a, b := s.requestList(items, 7), s.requestList(s.corpus(7), 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different request lists", s.name)
		}
		if c := s.requestList(s.corpus(8), 8); reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same request list", s.name)
		}
		if len(a) != s.requests {
			t.Errorf("%s: %d requests, want %d", s.name, len(a), s.requests)
		}
		kinds := map[opKind]int{}
		for _, r := range a {
			kinds[r.kind]++
		}
		if !s.mixed && kinds[opKNN] != len(a) {
			t.Errorf("%s: pure workload has op mix %v", s.name, kinds)
		}
		if s.mixed {
			for k := opKind(0); k < numOps; k++ {
				share := float64(kinds[k]) / float64(len(a))
				if math.Abs(share-mixedShares[k]) > 0.04 {
					t.Errorf("%s: %s share %.3f, want %.2f", s.name, k, share, mixedShares[k])
				}
			}
		}
	}
}

func TestCheckerComparesAnswersNotStats(t *testing.T) {
	reqs := []request{{kind: opKNN, status: 200}, {kind: opDominates, status: 200, want: true}}
	chk := newChecker(reqs)
	first := []byte(`{"k":10,"ids":[1,2],"items":[],"stats":{"NodesVisited":5}}`)
	if !chk.ok(0, 200, first) {
		t.Fatal("first answer rejected")
	}
	if !chk.ok(0, 200, []byte(`{"k":10,"ids":[1,2],"items":[],"stats":{"NodesVisited":9},"explain":{}}`)) {
		t.Error("same answer with different traversal stats rejected")
	}
	if chk.ok(0, 200, []byte(`{"k":10,"ids":[1,3],"items":[],"stats":{"NodesVisited":5}}`)) {
		t.Error("different ids accepted")
	}
	if chk.ok(0, 500, first) {
		t.Error("unexpected status accepted")
	}
	if chk.ok(1, 200, []byte(`{"dominates":false,"criterion":"Hyperbola"}`)) {
		t.Error("wrong dominance verdict accepted")
	}
	if !chk.ok(1, 200, []byte(`{"dominates":true,"criterion":"Hyperbola"}`)) {
		t.Error("right dominance verdict rejected")
	}
}

// benchmarkJSON is the driver-facing description at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var got []metricDef
	for _, m := range bj.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(got, endToEndDefs) {
		t.Errorf("end_to_end = %v\nharness emits %v", got, endToEndDefs)
	}
	got = nil
	for _, m := range bj.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(got, perLayerDefs) {
		t.Errorf("per_layer = %v\nharness emits %v", got, perLayerDefs)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, harness has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// inProcessLauncher serves the generated inputs from this process, as
// hyperdomd would, so the smoke test needs no child binary.
func inProcessLauncher(in serverInputs) (*target, error) {
	start := time.Now()
	var x *shard.Index
	if in.snapshotDir != "" {
		var err error
		if x, err = shard.OpenDir(in.snapshotDir+"/default", shard.OpenOptions{Algorithm: knn.HS, Label: "default"}); err != nil {
			return nil, err
		}
	} else {
		f, err := os.Open(in.csvPath)
		if err != nil {
			return nil, err
		}
		items, err := dataset.LoadCSV(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if x, err = shard.Build(items, len(items[0].Sphere.Center), serveOptions(spec{shards: in.shards})); err != nil {
			return nil, err
		}
	}
	srv := server.New()
	if err := srv.AddCollection("default", x); err != nil {
		x.Close()
		return nil, err
	}
	srv.SetReady(true)
	ts := httptest.NewServer(srv.Handler())
	var stopped atomic.Bool
	return &target{url: ts.URL, pid: os.Getpid(), setupS: time.Since(start).Seconds(), stop: func() {
		if stopped.CompareAndSwap(false, true) {
			ts.Close()
			srv.Close()
		}
	}}, nil
}

// TestQuickRunEmitsEveryMetric runs thin_d4 -quick, untraced and traced,
// against an in-process server and checks that each metric BENCHMARK.json
// names comes out exactly once with a finite value and no failed operation.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 2-second load window twice")
	}
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("needs /proc")
	}
	bj := readBenchmarkJSON(t)
	s, _ := findWorkload("thin_d4")
	o := config{seconds: 2, quick: true, verify: true}.opts(t.TempDir())
	p, err := prepare(s.quick(), 1, o.outDir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.cleanup()

	check := func(mode string, out *outcome, err error, defs []metricDef, names []string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if out.failed != 0 || out.attempted < 1 {
			t.Errorf("%s: %d of %d operations failed", mode, out.failed, out.attempted)
		}
		rl, err := toResultLine(out, defs)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(rl.Metrics) != len(names) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", mode, len(rl.Metrics), len(names))
		}
		for _, name := range names {
			mv, ok := rl.Metrics[name]
			switch {
			case !ok:
				t.Errorf("%s: %s not emitted", mode, name)
			case mv.Value == nil:
				if name != "engine.scaling" || !math.IsNaN(needsCores(1)) {
					t.Errorf("%s: %s is null", mode, name)
				}
			case math.IsNaN(*mv.Value) || math.IsInf(*mv.Value, 0):
				t.Errorf("%s: %s = %v", mode, name, *mv.Value)
			}
		}
	}
	var e2e, layers []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, m.Name)
	}
	out, err := endToEnd(p, o, inProcessLauncher)
	check("untraced", out, err, endToEndDefs, e2e)
	out, err = traced(p, o, inProcessLauncher)
	check("traced", out, err, perLayerDefs, layers)

	trace, err := os.ReadFile(o.outDir + "/thin_d4.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
		}
	}
	if err := json.Unmarshal(trace, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace file: %d events, %v", len(doc.TraceEvents), err)
	}
	if doc.TraceEvents[0].Ph != "X" {
		t.Errorf("trace events are phase %q, want complete events (X)", doc.TraceEvents[0].Ph)
	}
}
