package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Out != "BENCH_knn.json" {
		t.Errorf("Out = %q, want BENCH_knn.json", cfg.Out)
	}
	if cfg.Gate != "" {
		t.Errorf("Gate = %q, want empty", cfg.Gate)
	}
	if cfg.ScalingOnly {
		t.Error("ScalingOnly defaults on")
	}
	if cfg.RequireCores != 0 {
		t.Errorf("RequireCores = %d, want 0", cfg.RequireCores)
	}
	if cfg.Profile == nil || cfg.Profile.Wanted() {
		t.Errorf("Profile = %+v, want registered and idle", cfg.Profile)
	}
}

func TestParseFlagsAll(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-o", "out.json", "-gate", "committed.json",
		"-scaling-only", "-require-cores", "2",
		"-cpuprofile", "cpu.out", "-memprofile", "mem.out", "-metrics",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Out != "out.json" || cfg.Gate != "committed.json" {
		t.Errorf("parsed config = %+v", cfg)
	}
	if !cfg.ScalingOnly || cfg.RequireCores != 2 {
		t.Errorf("scaling flags = %+v", cfg)
	}
	if !cfg.Profile.Wanted() || cfg.Profile.CPUProfile != "cpu.out" || !cfg.Profile.Metrics {
		t.Errorf("profile flags = %+v", cfg.Profile)
	}
}

func TestParseFlagsBad(t *testing.T) {
	if _, err := parseFlags([]string{"-require-cores", "not-a-number"}); err == nil {
		t.Error("bad flag value accepted")
	}
	// A scaling-only report has no kernel rows and zero alloc counts: written
	// over the default BENCH_knn.json, it would fail the next -gate run.
	if _, err := parseFlags([]string{"-scaling-only"}); err == nil {
		t.Error("-scaling-only accepted without an explicit -o")
	}
	// The tool serves no HTTP: hyperdomd is the one process that does.
	for _, args := range [][]string{{"-serve", "localhost:0"}, {"-pprof", "localhost:0"}} {
		if _, err := parseFlags(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: error %v, want flag provided but not defined", args, err)
		}
	}
}

// TestBareGateKeepsCommittedReport: a -gate run without -o used to write
// its fresh report over the default output — the committed BENCH_knn.json
// when run from the repository root — and then gate that file against
// itself. Such a command line, and any -o naming the -gate report, is now
// refused with exit 2 before anything is measured or written, so the
// committed report is left byte for byte.
func TestBareGateKeepsCommittedReport(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	committed := []byte("{\"dim\": 10, \"knn_allocs_per_search_df\": 2}\n")
	if err := os.WriteFile("BENCH_knn.json", committed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("BENCH_knn.json", "link.json"); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-gate", "BENCH_knn.json"},
		{"-gate", filepath.Join(dir, "BENCH_knn.json")},
		{"-o", "BENCH_knn.json", "-gate", "BENCH_knn.json"},
		{"-o", "./BENCH_knn.json", "-gate", filepath.Join(dir, "BENCH_knn.json")},
		{"-o", "link.json", "-gate", "BENCH_knn.json"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v: accepted", args)
		}
		if code := runCommand(args); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if got, err := os.ReadFile("BENCH_knn.json"); err != nil || !bytes.Equal(got, committed) {
			t.Fatalf("%v: the committed report now reads %q (err %v)", args, got, err)
		}
	}
	// A missing -gate report fails before anything is measured.
	if code := runCommand([]string{"-o", "fresh.json", "-gate", "missing.json"}); code != 1 {
		t.Errorf("missing -gate report: exit %d, want 1", code)
	}
	if _, err := os.Stat("fresh.json"); !os.IsNotExist(err) {
		t.Errorf("missing -gate report: fresh.json was written (stat err %v)", err)
	}
}

// TestReportRoundTrip pins the BENCH_knn.json schema, metrics block
// included: what writeReport emits, readReport must reproduce exactly.
func TestReportRoundTrip(t *testing.T) {
	rep := report{
		Dim:     10,
		Queries: 512,
		Benchmarks: []kernelBench{
			{Name: "PreparedPair/PointQuery/Prepared", NsPerOp: 31.5, AllocsPerOp: 0, BytesPerOp: 0},
			{Name: "Search/SS10k/HS", NsPerOp: 120000, AllocsPerOp: 2, BytesPerOp: 400},
		},
		SpeedupPointQ:    1.91,
		SpeedupSphereQ:   1.33,
		KnnTreeItems:     10000,
		KnnK:             10,
		KnnAllocsDF:      2,
		KnnAllocsHS:      2,
		SpeedupTargetMet: true,
		Metrics: metricsBlock{
			Searches: 64,
			Counters: map[string]uint64{
				"knn.nodes_visited": 4096,
				"knn.dom_checks":    20000,
			},
			DomChecksPerQuery:  312.5,
			ChecksPerCandidate: 0.75,
			NodesPerQuery:      64,
			ItemsPerQuery:      500,
			PruneRate:          0.93,
		},
		Throughput: throughputBlock{
			GoMaxProcs: 2, CoresDetected: 4, Gated: true, BatchQueries: 128, K: 10,
			Points:       []scalingPoint{{Workers: 1, OpsPerSec: 1000, Scaling: 1}, {Workers: 8, OpsPerSec: 1800, Scaling: 1.8}},
			ScalingAtMax: 1.8,
		},
		ShardScaling: shardScalingBlock{
			GoMaxProcs: 2, CoresDetected: 4, Gated: true, BatchQueries: 64, K: 10,
			Points:       []shardScalingPoint{{Shards: 1, OpsPerSec: 700, Scaling: 1}, {Shards: 4, OpsPerSec: 1100, Scaling: 1.57}},
			ScalingAtMax: 1.57,
		},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rep)
	}
}

func TestReadReportMissing(t *testing.T) {
	if _, err := readReport(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestGateReport(t *testing.T) {
	cfg := &config{}
	sOnly := &config{ScalingOnly: true}
	committed := report{
		KnnAllocsDF: 2, KnnAllocsHS: 2,
		KnnAllocsPackedDF: 2,
	}
	ok := report{
		SpeedupPointQ: 1.9, SpeedupSphereQ: 1.8, SpeedupPacked: 1.2,
		SpeedupQuantized: quantBlock{Best: 1.6, BestTier: "f32"},
		SnapshotLoad:     snapshotLoadBlock{Speedup: 74},
		KnnAllocsDF:      2, KnnAllocsHS: 1,
		KnnAllocsPackedDF: 2,
		Throughput:        throughputBlock{GoMaxProcs: 1, ScalingAtMax: 1.0},
	}
	// Single core: the adaptive scaling floor collapses to 0.8, so flat
	// 1.0x scaling passes the scaling gate too.
	for _, c := range []*config{cfg, sOnly} {
		if failures := gateReport(ok, committed, c); len(failures) != 0 {
			t.Errorf("clean report failed the gate (scaling-only=%v): %v", c.ScalingOnly, failures)
		}
	}
	// Every ratio and alloc count here regresses — one failure per gate
	// (point-query, packed, quantized, sphere-query, snapshot, checks per
	// candidate, quartic share, three alloc rows). Its 8-core scaling is bad
	// too, and a full run does not look: that is the -scaling-only job's.
	bad := report{
		SpeedupPointQ: 1.1, SpeedupSphereQ: 1.0, SpeedupPacked: 1.0,
		SpeedupQuantized: quantBlock{Best: 1.1, BestTier: "i8"},
		SnapshotLoad:     snapshotLoadBlock{Speedup: 12},
		KnnAllocsDF:      3, KnnAllocsHS: 5,
		KnnAllocsPackedDF: 3,
		Throughput:        throughputBlock{GoMaxProcs: 8, ScalingAtMax: 1.2},
		Metrics:           metricsBlock{ChecksPerCandidate: 5.1},
		FinalFilter:       finalFilterBlock{QuarticShare: 0.44},
	}
	failures := gateReport(bad, committed, cfg)
	if len(failures) != 10 {
		t.Errorf("regressed report produced %d failures, want 10: %v", len(failures), failures)
	}
	for _, g := range ratioFloors {
		if !slices.ContainsFunc(failures, func(f string) bool { return strings.HasPrefix(f, g.name) }) {
			t.Errorf("no failure names %q: %v", g.name, failures)
		}
	}
	// -scaling-only restricts the gate to the scaling blocks: the kernel
	// ratios and alloc rows of the regressed report stop counting and only
	// its 8-core scaling failure (the full 2.5x bar applies) remains.
	if failures := gateReport(bad, committed, sOnly); len(failures) != 1 {
		t.Errorf("-scaling-only produced %d failures, want 1: %v", len(failures), failures)
	}
	// Even one core must not make queries slower across workers: scaling
	// under 0.8 fails regardless of GOMAXPROCS — where scaling is gated.
	slow := ok
	slow.Throughput = throughputBlock{GoMaxProcs: 1, ScalingAtMax: 0.7}
	if failures := gateReport(slow, committed, sOnly); len(failures) != 1 {
		t.Errorf("sub-0.8x scaling produced %d failures, want 1: %v", len(failures), failures)
	}
	if failures := gateReport(slow, committed, cfg); len(failures) != 0 {
		t.Errorf("a full run gated scaling: %v", failures)
	}
	// -require-cores fails a measurement from an undersized runner even if
	// every ratio passes.
	if failures := gateReport(ok, committed, &config{RequireCores: 2}); len(failures) != 1 {
		t.Errorf("-require-cores 2 on a 1-core report produced %d failures, want 1: %v", len(failures), failures)
	}
	// A pathological shard table (max-shard throughput under half
	// of single-shard) fails even when worker scaling is fine — but only
	// for gated (multi-core) measurements.
	shardBad := ok
	shardBad.Throughput = throughputBlock{GoMaxProcs: 8, ScalingAtMax: 4.0}
	shardBad.ShardScaling = shardScalingBlock{
		GoMaxProcs: 8, Gated: true,
		Points:       []shardScalingPoint{{Shards: 1, OpsPerSec: 1000, Scaling: 1}, {Shards: 4, OpsPerSec: 400, Scaling: 0.4}},
		ScalingAtMax: 0.4,
	}
	if failures := gateReport(shardBad, committed, sOnly); len(failures) != 1 {
		t.Errorf("pathological shard scaling produced %d failures, want 1: %v", len(failures), failures)
	}
	// The same table from a 1-core runner is not gated, like the engine
	// table: gated:false says so, and the gate lets it pass.
	shardBad.Throughput = throughputBlock{GoMaxProcs: 1, ScalingAtMax: 1.0}
	shardBad.ShardScaling.GoMaxProcs, shardBad.ShardScaling.Gated = 1, false
	if failures := gateReport(shardBad, committed, sOnly); len(failures) != 0 {
		t.Errorf("ungated 1-core shard table failed the gate: %v", failures)
	}
}

// TestQuarticShare replays a scaled-down final-filter fixture: the share is
// a proper fraction, under the gate's ceiling, and the counter gate is left
// off for the timing sections that follow. The certificates in
// PreparedPair leave the solver almost nothing on a fixture this small, so
// one more input is a check that still reaches it: a query radius within
// the certificates' margin of dmin.
func TestQuarticShare(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(false)
	inputs, candidates := finalFilterInputs(2000, 4, 10)
	if len(inputs) != 4 || candidates < 4*10 {
		t.Fatalf("%d inputs holding %d candidates", len(inputs), candidates)
	}
	sk, sb := geom.NewSphere([]float64{0, 0, 0}, 1), geom.NewSphere([]float64{20, 0, 0}, 1)
	sq := geom.NewSphere([]float64{-5, 0.25, 0}, 0)
	sq.Radius = dominance.HyperbolaDmin(sk, sb, sq) * (1 - 1e-12)
	inputs = append(inputs, filterInput{sk: sk, sq: sq, cands: []geom.Sphere{sb}})
	if share := quarticShare(inputs); !(share > 0 && share <= maxQuarticShare) {
		t.Errorf("quartic share %v outside (0, %v]", share, maxQuarticShare)
	}
	if obs.On() {
		t.Error("quarticShare left the counter gate enabled")
	}
}

// TestCaptureMetrics runs the real metrics pass on a scaled-down fixture
// and checks the derived ratios are present and internally consistent.
func TestCaptureMetrics(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(false) // captureMetrics enables the gate itself

	tr, _, queries := knnFixture(1500, 6)
	idx := knn.WrapPacked(tr.Freeze())
	sa, sb, points, _ := pairWorkload(rand.New(rand.NewSource(42)), 6, 64)
	m := captureMetrics(idx, queries, 5, sa, sb, points)

	if want := 5 * len(queries); m.Searches != want {
		t.Errorf("Searches = %d, want %d", m.Searches, want)
	}
	// Every search of the window flushed its work: the five passes over the
	// queries visit five times the nodes one pass does.
	var nodes int
	for _, q := range queries {
		nodes += knn.Search(idx, q, 5, dominance.Hyperbola{}, knn.DF).Stats.NodesVisited
	}
	if want := float64(nodes) / float64(len(queries)); m.NodesPerQuery != want || want == 0 {
		t.Errorf("NodesPerQuery = %v, one pass over the queries gives %v", m.NodesPerQuery, want)
	}
	if m.DomChecksPerQuery <= 0 {
		t.Errorf("derived ratios missing: %+v", m)
	}
	// The packed walk is depth-first.
	if m.Counters["knn.df_child_expansions"] == 0 {
		t.Error("counters[knn.df_child_expansions] = 0: the packed walk expanded no children")
	}
	// Each scanned item is pruned at most once, each candidate decided at
	// most once.
	if m.PruneRate <= 0 || m.PruneRate > 1 {
		t.Errorf("PruneRate = %v outside (0,1]", m.PruneRate)
	}
	if m.ChecksPerCandidate <= 0 || m.ChecksPerCandidate > 1 {
		t.Errorf("ChecksPerCandidate = %v outside (0,1]", m.ChecksPerCandidate)
	}
	if obs.On() {
		t.Error("captureMetrics left the counter gate enabled")
	}
	// Sanity against one live search with counters off: captureMetrics
	// must not leak tallies into later searches.
	knn.Search(idx, queries[0], 5, dominance.Hyperbola{}, knn.HS)
}
