// Command benchkernel measures the dominance/kNN hot kernels and writes
// the machine-readable BENCH_knn.json tracked across PRs:
//
//   - the Hyperbola criterion evaluated per triple versus through a
//     PreparedPair on one fixed (Sa, Sb) at d=10, for point queries (the
//     certain-query pruning case) and fat sphere queries;
//   - the kNN traversals over a 10k-item SS-tree: DF and HS over the
//     pointer tree, and the one (depth-first) walk of its frozen packed
//     snapshot, with their steady-state allocations per search and the
//     packed/pointer speedup ratio;
//   - tree construction cost: bulk load versus repeated insert, in
//     nanoseconds per item;
//   - snapshot cold-start: packed.Open over a saved 100k-item snapshot
//     (open + validate, zero-copy) versus a BulkLoad+Freeze rebuild (a
//     gated ratio);
//   - the kNN final filter alone at the paper's Table 2 defaults (d = 10,
//     radius μ = 10): SearchCandidates' output replayed through
//     dominance.Anchored, as nanoseconds per candidate and the share of
//     criterion calls that reach the quartic (gated at 0.03);
//   - batch-query throughput through the batch engine at 1/2/4/8
//     workers, with the scaling ratio relative to one worker;
//   - a metrics block captured from the obs registry: prune rates,
//     dominance checks and nodes visited per query (counts only: the
//     library searches read no clock, and the timing rows above are the
//     tool's own).
//
// Timing benchmarks run with the obs counters disabled so ns/op stays
// comparable across PRs; the metrics block comes from a separate
// counter-enabled pass over a fixed workload. The shared observability
// flags -cpuprofile, -memprofile and -metrics apply too; the process serves
// no HTTP.
//
// Usage:
//
//	benchkernel [-o BENCH_knn.json]
//	benchkernel -gate BENCH_knn.json                        # CI sanity gate (ratioFloors)
//	benchkernel -scaling-only -o scaling.json [-gate BENCH_knn.json -require-cores 2]   # scaling tables; CI's gate
//
// The search is benchmarked four ways: pointer path (DF and HS), frozen
// snapshot with quantization off (isolating the SoA layout, the
// speedup_packed_layout gate), and the frozen snapshot through the float32
// and int8 coarse-filter tiers (ISSUE 6). A snapshot has one walk,
// depth-first, whichever Algorithm a caller names, so each packed cell is
// timed once and divides both the pointer DF and the pointer HS time. The speedup_quantized block records each tier's gain over the
// pointer path; its best geomean is gated. The pointer path is the
// tree-cursor traversal (the only one an unfrozen tree has), so both
// ratios read "serving kernel over reference": a higher one can mean a
// slower denominator as well as a faster kernel, and a lower one a faster
// reference. The counter-enabled metrics pass runs under the served f32
// tier, which is where the coarse_prune_rate figure comes from.
//
// Worker scaling is gated by -scaling-only runs alone (the job with a
// guaranteed multi-core runner), and its floor is adaptive: a runner with P
// schedulable cores cannot scale past P, so the effective floor is
// min(scalingFloor, 0.45·GOMAXPROCS), never below 0.8 — on a single-core
// container the gate only demands that the workers not slow queries down,
// while a multi-core runner must show real parallel speedup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hyperdom/internal/dataset"
	"hyperdom/internal/dominance"
	"hyperdom/internal/engine"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
	"hyperdom/internal/shard"
	"hyperdom/internal/sstree"
	"hyperdom/internal/workload"
)

// kernelBench is one benchmark row of the output file.
type kernelBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// metricsBlock summarizes the obs counter registry over a fixed
// counter-enabled workload: MetricsSearches kNN searches of the packed
// snapshot (the served, depth-first walk) plus one prepared point-query
// sweep. Counters holds the raw snapshot diff; the derived ratios are what
// reviews and the CI gate read.
type metricsBlock struct {
	Searches          int               `json:"searches"`
	Counters          map[string]uint64 `json:"counters"`
	DomChecksPerQuery float64           `json:"dom_checks_per_query"`
	NodesPerQuery     float64           `json:"nodes_per_query"`
	ItemsPerQuery     float64           `json:"items_scanned_per_query"`
	PruneRate         float64           `json:"prune_rate"`
	// ChecksPerCandidate is criterion calls per candidate the traversal
	// kept (Search's DomChecks over SearchCandidates' stream, summed over
	// the fixture's queries): a count, exact for the fixture seed. The
	// criterion runs at most once per candidate, so the gate fails above 1.
	ChecksPerCandidate float64 `json:"checks_per_candidate"`
	// CoarsePruneRate is the fraction of packed leaf items the quantized
	// pass settled without touching the exact float64 block, under the
	// served f32 tier of the metrics pass.
	CoarsePruneRate float64 `json:"coarse_prune_rate"`
}

// quantBlock is the quantized coarse-filter speedup table (ISSUE 6): each
// reference walk's time (pointer DF, pointer HS) against the tier's one
// packed walk on the same frozen fixture. Best is the larger tier geomean —
// the number the quantized-speedup gate reads.
type quantBlock struct {
	DFf32      float64 `json:"df_f32"`
	HSf32      float64 `json:"hs_f32"`
	DFi8       float64 `json:"df_i8"`
	HSi8       float64 `json:"hs_i8"`
	GeomeanF32 float64 `json:"geomean_f32"`
	GeomeanI8  float64 `json:"geomean_i8"`
	Best       float64 `json:"best"`
	BestTier   string  `json:"best_tier"`
}

// snapshotLoadBlock is the zero-copy persistence headline (ISSUE 10): the
// same 100k-item frozen index brought to serving two ways — packed.Open
// over a saved snapshot file (header validate + structural checks + slice
// the mapping; no tree rebuild) versus rebuilding from the raw items with
// BulkLoad+Freeze. Speedup is rebuild/open per item, a gated ratio. HeapBytesAfterOpen shows what the open path actually allocates
// (the item directory and headers — the payload stays in the page cache).
type snapshotLoadBlock struct {
	Items              int     `json:"items"`
	FileBytes          int64   `json:"file_bytes"`
	Mapped             bool    `json:"mapped"`
	OpenNsPerItem      float64 `json:"open_ns_per_item"`
	RebuildNsPerItem   float64 `json:"rebuild_ns_per_item"`
	HeapBytesAfterOpen uint64  `json:"heap_bytes_after_open"`
	Speedup            float64 `json:"speedup_vs_rebuild"`
}

// finalFilterBlock is the kNN final filter in isolation (ISSUE 17): the
// candidate sets the traversal keeps on the d = 10, μ = 10 corpus — the
// shape where finish() is half of a request — replayed through the anchored
// kernel against their Sk. QuarticShare is quartic solves per criterion
// call, an exact count for the fixture seed: the accept bounds in
// PreparedPair.verdict exist to keep it low, and the gate fails above
// maxQuarticShare.
type finalFilterBlock struct {
	Queries        int     `json:"queries"`
	Candidates     int     `json:"candidates"`
	NsPerCandidate float64 `json:"ns_per_candidate"`
	QuarticShare   float64 `json:"quartic_share"`
}

// maxQuarticShare is the final_filter gate's ceiling.
const maxQuarticShare = 0.03

// scalingPoint is one engine throughput measurement: a fixed query batch
// answered on Workers workers, as queries per second and as a ratio over
// one worker.
type scalingPoint struct {
	Workers   int     `json:"workers"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Scaling   float64 `json:"scaling_vs_1_worker"`
}

// throughputBlock is the batch-engine scaling table. GoMaxProcs records how
// many cores the measurement actually had — scaling cannot exceed it, and
// the CI gate adapts its floor accordingly. CoresDetected is the machine's
// physical view (runtime.NumCPU) and Gated says whether this runner can
// meaningfully enforce a multi-core scaling floor (GoMaxProcs ≥ 2) — a
// flat table with gated:false is an expected small-runner artifact, the
// same table with gated:true is a regression.
type throughputBlock struct {
	GoMaxProcs    int            `json:"gomaxprocs"`
	CoresDetected int            `json:"cores_detected"`
	Gated         bool           `json:"gated"`
	BatchQueries  int            `json:"batch_queries"`
	K             int            `json:"k"`
	Points        []scalingPoint `json:"points"`
	ScalingAtMax  float64        `json:"scaling_at_8_workers"`
}

// shardScalingPoint is one shard count of the shard-scaling table.
type shardScalingPoint struct {
	Shards    int     `json:"shards"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Scaling   float64 `json:"scaling_vs_1_shard"`
}

// shardScalingBlock is the shard-scaling table (DESIGN.md §13): the same
// query stream answered through sharded indexes of growing shard counts, every count returning bit-identical result sets. Carries
// the same cores_detected / gated runner context as throughputBlock.
type shardScalingBlock struct {
	GoMaxProcs    int                 `json:"gomaxprocs"`
	CoresDetected int                 `json:"cores_detected"`
	Gated         bool                `json:"gated"`
	BatchQueries  int                 `json:"batch_queries"`
	K             int                 `json:"k"`
	Points        []shardScalingPoint `json:"points"`
	ScalingAtMax  float64             `json:"scaling_at_max_shards"`
}

// report is the schema of BENCH_knn.json.
type report struct {
	Dim               int               `json:"dim"`
	Queries           int               `json:"queries_per_op"`
	Benchmarks        []kernelBench     `json:"benchmarks"`
	SpeedupPointQ     float64           `json:"speedup_prepared_point_query"`
	SpeedupSphereQ    float64           `json:"speedup_prepared_sphere_query"`
	KnnTreeItems      int               `json:"knn_tree_items"`
	KnnK              int               `json:"knn_k"`
	KnnAllocsDF       int64             `json:"knn_allocs_per_search_df"`
	KnnAllocsHS       int64             `json:"knn_allocs_per_search_hs"`
	KnnAllocsPackedDF int64             `json:"knn_allocs_per_search_packed_df"`
	SpeedupPackedDF   float64           `json:"speedup_packed_layout_df"` // pointer DF over the packed walk
	SpeedupPackedHS   float64           `json:"speedup_packed_layout_hs"` // pointer HS over the packed walk
	SpeedupPacked     float64           `json:"speedup_packed_layout"`    // geometric mean of DF and HS
	SpeedupQuantized  quantBlock        `json:"speedup_quantized"`        // quantized tiers vs pointer path
	BuildInsertNs     float64           `json:"build_insert_ns_per_item"`
	BuildBulkNs       float64           `json:"build_bulkload_ns_per_item"`
	BuildBulkSpeedup  float64           `json:"build_bulkload_speedup"`
	SnapshotLoad      snapshotLoadBlock `json:"snapshot_load"`
	FinalFilter       finalFilterBlock  `json:"final_filter"`
	Throughput        throughputBlock   `json:"throughput_scaling"`
	ShardScaling      shardScalingBlock `json:"shard_scaling"`
	SpeedupTargetMet  bool              `json:"speedup_target_met"` // point-query ratio >= 1.5
	Metrics           metricsBlock      `json:"metrics"`
}

// config holds the parsed command line.
type config struct {
	Out          string
	Gate         string
	ScalingOnly  bool
	RequireCores int
	Profile      *obs.ProfileFlags
}

// parseFlags parses args (not including the program name) into a config.
func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("benchkernel", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.Out, "o", "BENCH_knn.json", "output file")
	fs.StringVar(&cfg.Gate, "gate", "", "committed BENCH_knn.json to gate against (CI mode; exits non-zero on regression)")
	fs.BoolVar(&cfg.ScalingOnly, "scaling-only", false, "measure (and gate) only the throughput_scaling and shard_scaling blocks — the dedicated multi-core CI job's mode, and the only one that gates scaling")
	fs.IntVar(&cfg.RequireCores, "require-cores", 0, "gate mode: fail unless the measurement ran with at least this many schedulable cores (guards the scaling gate against silently passing on undersized runners)")
	cfg.Profile = obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cfg.ScalingOnly {
		explicitOut := false
		fs.Visit(func(f *flag.Flag) { explicitOut = explicitOut || f.Name == "o" })
		if !explicitOut {
			err := fmt.Errorf("-scaling-only needs an explicit -o: its scaling-only report would overwrite %s", cfg.Out)
			fmt.Fprintln(os.Stderr, "benchkernel:", err)
			return nil, err
		}
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	stop, err := cfg.Profile.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchkernel:", err)
		os.Exit(1)
	}

	var rep report
	if cfg.ScalingOnly {
		rep = scalingReport()
	} else {
		rep = buildReport(cfg)
	}

	if err := writeReport(cfg.Out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchkernel:", err)
		os.Exit(1)
	}
	if cfg.ScalingOnly {
		fmt.Printf("wrote %s (scaling-only: 8-worker scaling %.2fx, shard scaling %.2fx at %d shards; gomaxprocs=%d, cores_detected=%d, gated=%v)\n",
			cfg.Out, rep.Throughput.ScalingAtMax, rep.ShardScaling.ScalingAtMax,
			maxShards(rep.ShardScaling), rep.Throughput.GoMaxProcs,
			rep.Throughput.CoresDetected, rep.Throughput.Gated)
	} else {
		fmt.Printf("wrote %s (prepared point-query speedup %.2fx, sphere-query %.2fx; packed-layout speedup DF=%.2fx HS=%.2fx; quantized f32=%.2fx i8=%.2fx best=%s; coarse-prune rate %.2f; snapshot open %.2fx over rebuild (%.1f vs %.1f ns/item, mapped=%v); final filter %.0f ns/candidate, quartic share %.3f; 8-worker scaling %.2fx on %d core(s); shard scaling %.2fx; knn allocs/search DF=%d HS=%d; prune rate %.2f)\n",
			cfg.Out, rep.SpeedupPointQ, rep.SpeedupSphereQ, rep.SpeedupPackedDF, rep.SpeedupPackedHS,
			rep.SpeedupQuantized.GeomeanF32, rep.SpeedupQuantized.GeomeanI8, rep.SpeedupQuantized.BestTier,
			rep.Metrics.CoarsePruneRate,
			rep.SnapshotLoad.Speedup, rep.SnapshotLoad.OpenNsPerItem, rep.SnapshotLoad.RebuildNsPerItem, rep.SnapshotLoad.Mapped,
			rep.FinalFilter.NsPerCandidate, rep.FinalFilter.QuarticShare,
			rep.Throughput.ScalingAtMax, rep.Throughput.GoMaxProcs, rep.ShardScaling.ScalingAtMax,
			rep.KnnAllocsDF, rep.KnnAllocsHS,
			rep.Metrics.PruneRate)
	}
	stop()

	if cfg.Gate != "" {
		committed, err := readReport(cfg.Gate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchkernel: gate:", err)
			os.Exit(1)
		}
		if failures := gateReport(rep, committed, cfg); len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "benchkernel: gate FAILED:\n  %s\n", strings.Join(failures, "\n  "))
			os.Exit(1)
		}
		fmt.Println("gate passed")
	}
}

// buildReport runs all benchmarks and the metrics pass. Timing runs with
// counters off; the metrics pass re-enables them and diffs the registry.
func buildReport(cfg *config) report {
	rep := report{Dim: 10, Queries: 512, KnnTreeItems: 10000, KnnK: 10}

	wasOn := obs.On()
	obs.SetEnabled(false)
	defer obs.SetEnabled(wasOn)

	sa, sb, points, spheres := pairWorkload(rand.New(rand.NewSource(123)), rep.Dim, rep.Queries)

	// Same round structure as the search section below: each cell keeps its
	// fastest of three interleaved rounds so host-speed drift between the
	// per-triple baseline and the prepared path cannot pose as (or mask) a
	// speedup.
	pairCells := []struct {
		name string
		qs   []geom.Sphere
		prep bool
	}{
		{"PreparedPair/PointQuery/PerTriple", points, false},
		{"PreparedPair/PointQuery/Prepared", points, true},
		{"PreparedPair/SphereQuery/PerTriple", spheres, false},
		{"PreparedPair/SphereQuery/Prepared", spheres, true},
	}
	var pairRows [4]kernelBench
	for round := 0; round < 3; round++ {
		for ci, cell := range pairCells {
			qs, prep := cell.qs, cell.prep
			pairRows[ci] = minBench(pairRows[ci], bench(func(b *testing.B) {
				if prep {
					pp := dominance.PreparePair(sa, sb)
					for i := 0; i < b.N; i++ {
						for _, q := range qs {
							sink(pp.Dominates(q))
						}
					}
					return
				}
				crit := dominance.Hyperbola{}
				for i := 0; i < b.N; i++ {
					for _, q := range qs {
						sink(crit.Dominates(sa, sb, q))
					}
				}
			}))
		}
	}
	for ci, cell := range pairCells {
		pairRows[ci].Name = cell.name
		rep.Benchmarks = append(rep.Benchmarks, pairRows[ci])
	}
	rep.SpeedupPointQ = ratio(pairRows[0], pairRows[1])
	rep.SpeedupSphereQ = ratio(pairRows[2], pairRows[3])
	rep.SpeedupTargetMet = rep.SpeedupPointQ >= 1.5

	tree, items, queries := knnFixture(rep.KnnTreeItems, 8)
	// The first two cells walk the pointer tree (DF, HS); the rest walk its
	// packed snapshot with quantization off (isolating the SoA layout) and
	// through the two coarse-filter tiers — same fixture, same queries, so
	// every ratio isolates one mechanism. The pointer and packed cells
	// interleave within each round, so slow drift of the host cannot
	// masquerade as a layout speedup — or erase one. The process default is
	// QuantF32, so each cell pins its mode.
	idx, packedIdx := knn.WrapSSTree(tree), knn.WrapPacked(tree.Freeze())
	cells := []struct {
		name   string
		target knn.Index
		mode   knn.QuantMode
		algo   knn.Algorithm
	}{
		{"Search/SS10k/DF", idx, knn.QuantNone, knn.DF},
		{"Search/SS10k/HS", idx, knn.QuantNone, knn.HS},
		{"SearchPacked/SS10k/DF", packedIdx, knn.QuantNone, knn.DF},
		{"SearchQuantF32/SS10k/DF", packedIdx, knn.QuantF32, knn.DF},
		{"SearchQuantI8/SS10k/DF", packedIdx, knn.QuantI8, knn.DF},
	}
	// Each cell keeps its fastest of eight rounds: the cells share one
	// noisy core, and a single back-to-back sweep folds scheduler jitter
	// straight into the speedup ratios, so every round interleaves all
	// cells and the minimum filters out the slow stretches.
	rows := make([]kernelBench, len(cells))
	prevMode := knn.QuantModeNow()
	const searchRounds = 8
	for round := 0; round < searchRounds; round++ {
		for ci, c := range cells {
			knn.SetQuantMode(c.mode)
			rows[ci] = minBench(rows[ci], bench(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					knn.Search(c.target, queries[i%len(queries)], rep.KnnK, dominance.Hyperbola{}, c.algo)
				}
			}))
		}
	}
	knn.SetQuantMode(prevMode)
	for ci, c := range cells {
		rows[ci].Name = c.name
		rep.Benchmarks = append(rep.Benchmarks, rows[ci])
	}
	ptrDF, ptrHS, packed, f32, i8 := rows[0], rows[1], rows[2], rows[3], rows[4]
	rep.KnnAllocsDF, rep.KnnAllocsHS = ptrDF.AllocsPerOp, ptrHS.AllocsPerOp
	rep.KnnAllocsPackedDF = packed.AllocsPerOp
	rep.SpeedupPackedDF = ratio(ptrDF, packed)
	rep.SpeedupPackedHS = ratio(ptrHS, packed)
	// The gate reads the geometric mean over the two reference walks: both
	// must contribute, and one noisy single-run ratio cannot flip the
	// verdict the way a min() would.
	rep.SpeedupPacked = math.Sqrt(rep.SpeedupPackedDF * rep.SpeedupPackedHS)

	q := &rep.SpeedupQuantized
	q.DFf32, q.HSf32 = ratio(ptrDF, f32), ratio(ptrHS, f32)
	q.DFi8, q.HSi8 = ratio(ptrDF, i8), ratio(ptrHS, i8)
	q.GeomeanF32 = math.Sqrt(q.DFf32 * q.HSf32)
	q.GeomeanI8 = math.Sqrt(q.DFi8 * q.HSi8)
	q.Best, q.BestTier = q.GeomeanF32, "f32"
	if q.GeomeanI8 > q.Best {
		q.Best, q.BestTier = q.GeomeanI8, "i8"
	}

	rep.BuildInsertNs, rep.BuildBulkNs, rep.BuildBulkSpeedup = buildCost(&rep)
	rep.SnapshotLoad = measureSnapshotLoad(&rep)
	rep.FinalFilter = measureFinalFilter(&rep)
	// The post-search sections (scaling, metrics) exercise the packed quant
	// path.
	rep.Throughput = measureScaling(&rep, packedIdx, queries, rep.KnnK)
	rep.ShardScaling = measureShardScaling(&rep, items, 8, queries, rep.KnnK)

	// The metrics pass runs under the process default, the served f32
	// tier, so the coarse-filter counters (and the derived prune rate)
	// describe what is served.
	rep.Metrics = captureMetrics(packedIdx, queries, rep.KnnK, sa, sb, points)
	return rep
}

// buildCost measures tree construction both ways — repeated Insert versus
// bulk load (tree.Load) — over the same item set, in nanoseconds per item
// (BenchmarkBulkLoadVsInsert's numbers, snapshotted into the report).
func buildCost(rep *report) (insertNs, bulkNs, speedup float64) {
	d := 8
	items := gaussianItems(rand.New(rand.NewSource(42)), rep.KnnTreeItems, d)
	ins := run("Build/SS10k/Insert", rep, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := sstree.New(d)
			for _, it := range items {
				t.Insert(it)
			}
		}
	})
	bulk := run("Build/SS10k/BulkLoad", rep, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := sstree.New(d)
			t.BulkLoad(items)
		}
	})
	n := float64(len(items))
	return ins.NsPerOp / n, bulk.NsPerOp / n, ratio(ins, bulk)
}

// measureSnapshotLoad builds the 100k-item snapshot fixture, saves it
// once, and times the two cold-start paths: packed.Open over the file
// (open + validate, zero-copy on platforms with mmap) against a full
// BulkLoad+Freeze rebuild from the raw items. Also records the file size,
// whether the open actually mapped, and the heap the open path retains.
func measureSnapshotLoad(rep *report) snapshotLoadBlock {
	const n, d = 100000, 8
	items := gaussianItems(rand.New(rand.NewSource(4242)), n, d)
	dir, err := os.MkdirTemp("", "hdsnapbench")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.hds")
	t := sstree.New(d)
	t.BulkLoad(items)
	if err := t.Freeze().Save(path); err != nil {
		panic(err)
	}
	blk := snapshotLoadBlock{Items: n}
	if fi, err := os.Stat(path); err == nil {
		blk.FileBytes = fi.Size()
	}

	rebuild := run("SnapshotLoad/SS100k/RebuildBulkFreeze", rep, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tt := sstree.New(d)
			tt.BulkLoad(items)
			tt.Freeze()
		}
	})
	open := run("SnapshotLoad/SS100k/Open", rep, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := packed.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
	})
	blk.OpenNsPerItem = open.NsPerOp / n
	blk.RebuildNsPerItem = rebuild.NsPerOp / n
	blk.Speedup = ratio(rebuild, open)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := packed.Open(path)
	if err != nil {
		panic(err)
	}
	runtime.ReadMemStats(&after)
	blk.Mapped = s.Mapped()
	if after.HeapAlloc > before.HeapAlloc {
		blk.HeapBytesAfterOpen = after.HeapAlloc - before.HeapAlloc
	}
	s.Close()
	return blk
}

// filterInput is one query's final-filter input: the traversal's Sk, the
// query, and the spheres of every candidate it kept.
type filterInput struct {
	sk, sq geom.Sphere
	cands  []geom.Sphere
}

// finalFilterInputs builds the Table 2 default corpus (n Gaussian
// N(100, 25) centres at d = 10, N(10, 2.5) radii) and returns what the
// traversal keeps for nq queries drawn from the data.
func finalFilterInputs(n, nq, k int) (inputs []filterInput, candidates int) {
	const d = 10
	items := dataset.Spheres(dataset.SyntheticCenters(n, d, dataset.Gaussian, 1), dataset.GaussianRadii(10), 2)
	t := sstree.New(d)
	t.BulkLoad(items)
	idx := knn.WrapPacked(t.Freeze())
	for _, sq := range workload.KNNQueries(items, nq, 3) {
		cs := knn.SearchCandidates(idx, sq, k, dominance.Hyperbola{}, knn.DF, nil)
		in := filterInput{sk: cs.Candidates[k-1].Item.Sphere, sq: sq}
		for _, c := range cs.Candidates {
			in.cands = append(in.cands, c.Item.Sphere)
		}
		inputs = append(inputs, in)
		candidates += len(in.cands)
	}
	return inputs, candidates
}

// replayFinalFilter is finish()'s criterion loop over the recorded inputs.
func replayFinalFilter(an *dominance.Anchored, inputs []filterInput) {
	for _, in := range inputs {
		an.Reset(dominance.Hyperbola{}, in.sk, in.sq)
		for _, s := range in.cands {
			sink(an.Dominates(s))
		}
	}
}

// quarticShare replays the inputs once with the counters on and returns
// quartic solves per criterion call replayed.
func quarticShare(inputs []filterInput) float64 {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.ResetForTest()
	var an dominance.Anchored
	replayFinalFilter(&an, inputs)
	an.FlushObs()
	calls := 0
	for _, in := range inputs {
		calls += len(in.cands)
	}
	return float64(obs.Snapshot().Get("dominance.quartic_solves")) / float64(calls)
}

// measureFinalFilter times the replay with the counters off, then counts.
func measureFinalFilter(rep *report) finalFilterBlock {
	inputs, candidates := finalFilterInputs(10000, 16, rep.KnnK)
	var an dominance.Anchored
	row := run("FinalFilter/G10k-d10-mu10/Anchored", rep, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replayFinalFilter(&an, inputs)
		}
	})
	return finalFilterBlock{
		Queries:        len(inputs),
		Candidates:     candidates,
		NsPerCandidate: row.NsPerOp / float64(candidates),
		QuarticShare:   quarticShare(inputs),
	}
}

// measureScaling drives the same query batch through the engine at
// 1/2/4/8 workers over the frozen fixture and reports queries per second at
// each width. The batch cycles the fixture queries up to a size that keeps
// eight workers busy.
func measureScaling(rep *report, idx knn.Index, queries []geom.Sphere, k int) throughputBlock {
	const batch = 128
	tb := throughputBlock{
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		CoresDetected: runtime.NumCPU(),
		BatchQueries:  batch,
		K:             k,
	}
	// A 1-core runner cannot show parallel speedup, so its flat table is an
	// artifact, not a regression — gated records which case this report is.
	tb.Gated = tb.GoMaxProcs >= 2
	bq := make([]geom.Sphere, batch)
	for i := range bq {
		bq[i] = queries[i%len(queries)]
	}
	for _, w := range []int{1, 2, 4, 8} {
		e := engine.New(idx, engine.WithWorkers(w))
		row := run(fmt.Sprintf("EngineBatch/SS10k/workers=%d", w), rep, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.SearchBatch(bq, k)
			}
		})
		e.Close()
		pt := scalingPoint{Workers: w, OpsPerSec: batch / (row.NsPerOp / 1e9), Scaling: 1}
		if len(tb.Points) > 0 && tb.Points[0].OpsPerSec > 0 {
			pt.Scaling = pt.OpsPerSec / tb.Points[0].OpsPerSec
		}
		tb.Points = append(tb.Points, pt)
	}
	tb.ScalingAtMax = tb.Points[len(tb.Points)-1].Scaling
	return tb
}

// measureShardScaling answers the same query batch through sharded indexes
// of 1/2/4 shards — a sequential query loop, each query walking its shards
// nearest first with one best-known list. Every shard count returns
// bit-identical result sets (DESIGN.md §13), so the rows read what walking S
// small trees in order costs or saves against one tree.
func measureShardScaling(rep *report, items []geom.Item, dim int, queries []geom.Sphere, k int) shardScalingBlock {
	const batch = 64
	sb := shardScalingBlock{
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		CoresDetected: runtime.NumCPU(),
		BatchQueries:  batch,
		K:             k,
	}
	sb.Gated = sb.GoMaxProcs >= 2
	bq := make([]geom.Sphere, batch)
	for i := range bq {
		bq[i] = queries[i%len(queries)]
	}
	for _, s := range []int{1, 2, 4} {
		x, err := shard.Build(items, dim, shard.Options{
			Shards: s,
			Label:  fmt.Sprintf("bench-%d", s),
		})
		if err != nil {
			panic(err) // impossible: options are well-formed by construction
		}
		row := run(fmt.Sprintf("ShardedBatch/SS10k/shards=%d", s), rep, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range bq {
					x.Search(q, k)
				}
			}
		})
		x.Close()
		pt := shardScalingPoint{Shards: s, OpsPerSec: batch / (row.NsPerOp / 1e9), Scaling: 1}
		if len(sb.Points) > 0 && sb.Points[0].OpsPerSec > 0 {
			pt.Scaling = pt.OpsPerSec / sb.Points[0].OpsPerSec
		}
		sb.Points = append(sb.Points, pt)
	}
	sb.ScalingAtMax = sb.Points[len(sb.Points)-1].Scaling
	return sb
}

// scalingReport is the -scaling-only build: just the fixture, the engine
// worker-scaling table and the shard-scaling table — what the dedicated
// multi-core CI job measures and gates, without re-timing the kernel cells
// the single-core bench-sanity job already covers.
func scalingReport() report {
	rep := report{Dim: 10, Queries: 512, KnnTreeItems: 10000, KnnK: 10}

	wasOn := obs.On()
	obs.SetEnabled(false)
	defer obs.SetEnabled(wasOn)

	tree, items, queries := knnFixture(rep.KnnTreeItems, 8)
	rep.Throughput = measureScaling(&rep, knn.WrapPacked(tree.Freeze()), queries, rep.KnnK)
	rep.ShardScaling = measureShardScaling(&rep, items, 8, queries, rep.KnnK)
	return rep
}

// maxShards returns the largest measured shard count, 0 for an empty block.
func maxShards(sb shardScalingBlock) int {
	if len(sb.Points) == 0 {
		return 0
	}
	return sb.Points[len(sb.Points)-1].Shards
}

// captureMetrics runs the fixed metrics workload with counters enabled and
// reduces the registry to the per-query ratios the report carries: the
// served walk over idx, a packed snapshot. The registry is zeroed first
// (obs.ResetForTest) so every reading is absolute.
func captureMetrics(idx knn.Index, queries []geom.Sphere, k int, sa, sb geom.Sphere, points []geom.Sphere) metricsBlock {
	// Before the registry window opens, so these searches stay out of it.
	var checks, cands int
	for _, q := range queries {
		cands += len(knn.SearchCandidates(idx, q, k, dominance.Hyperbola{}, knn.DF, nil).Candidates)
		checks += knn.Search(idx, q, k, dominance.Hyperbola{}, knn.DF).Stats.DomChecks
	}

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.ResetForTest()

	const rounds = 4
	for r := 0; r < rounds; r++ {
		for _, q := range queries {
			knn.Search(idx, q, k, dominance.Hyperbola{}, knn.DF)
		}
	}
	// One parallel batch over the same queries, so the workload layer's
	// batch counters carry samples in the exposition; its searches count in
	// searches below. The batch answers are bit-identical to the serial
	// searches above, so the per-query ratios stay meaningful over the sum.
	workload.KNNBatch(idx, queries, k, 2, dominance.Hyperbola{}, knn.DF)
	// One prepared pair over the point queries, so the kernel's own
	// counters carry a pair that serves many queries.
	pp := dominance.PreparePair(sa, sb)
	for _, q := range points {
		sink(pp.Dominates(q))
	}
	pp.FlushObs()

	diff := obs.Snapshot()

	searches := (rounds + 1) * len(queries)
	m := metricsBlock{Searches: searches, Counters: diff.Diff(obs.Snap{})}
	n := float64(searches)
	m.DomChecksPerQuery = float64(diff.Get("knn.dom_checks")) / n
	if cands > 0 {
		m.ChecksPerCandidate = float64(checks) / float64(cands)
	}
	m.NodesPerQuery = float64(diff.Get("knn.nodes_visited")) / n
	m.ItemsPerQuery = float64(diff.Get("knn.items_scanned")) / n
	// Prune events per scanned item: each item is pruned at most once.
	if scanned := diff.Get("knn.items_scanned"); scanned > 0 {
		m.PruneRate = float64(diff.Get("knn.pruned")) / float64(scanned)
	}
	// Coarse-filter effectiveness: leaf items settled by the narrow bounds
	// over all items the quantized pass looked at.
	coarse := diff.Get("packed.quant.item_coarse_prunes")
	if total := coarse + diff.Get("packed.quant.item_exact_fallbacks"); total > 0 {
		m.CoarsePruneRate = float64(coarse) / float64(total)
	}
	return m
}

// ratioFloors are the dimensionless speedups a full (not -scaling-only) run
// is gated on — stable across machines of different speed, so the floors
// are constants of the tool, not of the invocation.
var ratioFloors = []struct {
	name  string
	value func(*report) float64
	floor float64
}{
	{"prepared point-query speedup", func(r *report) float64 { return r.SpeedupPointQ }, 1.3},
	{"packed-layout search speedup", func(r *report) float64 { return r.SpeedupPacked }, 1.15},
	{"quantized search speedup (best tier)", func(r *report) float64 { return r.SpeedupQuantized.Best }, 1.4},
	{"prepared sphere-query speedup", func(r *report) float64 { return r.SpeedupSphereQ }, 1.5},
	{"snapshot open-vs-rebuild speedup", func(r *report) float64 { return r.SnapshotLoad.Speedup }, 20},
}

// scalingFloor is the 8-worker throughput scaling an 8-core runner must
// show; gateReport adapts it down to the cores the measurement had.
const scalingFloor = 2.5

// gateReport compares a fresh report against the committed one and returns
// the list of regressions; empty means the gate passes. Timing is checked
// only through dimensionless ratios; allocations are exact counts.
func gateReport(current, committed report, cfg *config) []string {
	var failures []string
	if cfg.RequireCores > 0 && current.Throughput.GoMaxProcs < cfg.RequireCores {
		failures = append(failures, fmt.Sprintf(
			"measurement ran with gomaxprocs=%d, below -require-cores %d (cores_detected=%d) — runner is undersized for this gate",
			current.Throughput.GoMaxProcs, cfg.RequireCores, current.Throughput.CoresDetected))
	}
	if cfg.ScalingOnly {
		// Eight workers cannot scale past the cores they run on, so the
		// floor adapts: min(scalingFloor, 0.45·GOMAXPROCS), never below 0.8 —
		// on one core the batch must merely not slow queries down.
		floor := max(min(scalingFloor, 0.45*float64(current.Throughput.GoMaxProcs)), 0.8)
		if current.Throughput.ScalingAtMax < floor {
			failures = append(failures, fmt.Sprintf(
				"8-worker throughput scaling %.2fx below floor %.2fx (gomaxprocs=%d)",
				current.Throughput.ScalingAtMax, floor, current.Throughput.GoMaxProcs))
		}
		// The shard table is recorded for trend review but held only to a
		// "not pathological" bar: walking the max shard count must not halve
		// throughput versus one shard. Only gated (multi-core) measurements
		// count, as for the engine table.
		if n := len(current.ShardScaling.Points); n > 0 && current.ShardScaling.Gated &&
			current.ShardScaling.ScalingAtMax < 0.5 {
			failures = append(failures, fmt.Sprintf(
				"shard scaling %.2fx at %d shards below 0.50x of single-shard throughput (gomaxprocs=%d)",
				current.ShardScaling.ScalingAtMax, maxShards(current.ShardScaling),
				current.ShardScaling.GoMaxProcs))
		}
		return failures
	}
	for _, g := range ratioFloors {
		if v := g.value(&current); v < g.floor {
			failures = append(failures, fmt.Sprintf("%s %.2fx below floor %.2fx", g.name, v, g.floor))
		}
	}
	if current.Metrics.ChecksPerCandidate > 1 {
		failures = append(failures, fmt.Sprintf(
			"%.3f criterion calls per candidate: some candidate was decided more than once",
			current.Metrics.ChecksPerCandidate))
	}
	if current.FinalFilter.QuarticShare > maxQuarticShare {
		failures = append(failures, fmt.Sprintf(
			"final filter reaches the quartic on %.3f of its criterion calls, ceiling %.2f",
			current.FinalFilter.QuarticShare, maxQuarticShare))
	}
	for _, g := range []struct {
		name               string
		current, committed int64
	}{
		{"DF search", current.KnnAllocsDF, committed.KnnAllocsDF},
		{"HS search", current.KnnAllocsHS, committed.KnnAllocsHS},
		{"packed DF search", current.KnnAllocsPackedDF, committed.KnnAllocsPackedDF},
	} {
		if g.current > g.committed {
			failures = append(failures, fmt.Sprintf(
				"%s allocs/op %d exceeds committed %d", g.name, g.current, g.committed))
		}
	}
	return failures
}

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(data, &rep)
	return rep, err
}

// run executes one testing.Benchmark, appends the row to the report and
// returns it.
func run(name string, rep *report, fn func(*testing.B)) kernelBench {
	kb := bench(fn)
	kb.Name = name
	rep.Benchmarks = append(rep.Benchmarks, kb)
	return kb
}

// bench measures one configuration without recording it, so callers can
// take the best of several rounds before reporting.
func bench(fn func(*testing.B)) kernelBench {
	r := testing.Benchmark(fn)
	return kernelBench{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// minBench keeps the faster of two measurements of the same configuration
// (a zero-value best, from before any round ran, always loses).
func minBench(best, next kernelBench) kernelBench {
	if best.NsPerOp == 0 || next.NsPerOp < best.NsPerOp {
		next.Name = best.Name
		return next
	}
	return best
}

func ratio(base, fast kernelBench) float64 {
	if fast.NsPerOp == 0 {
		return 0
	}
	return base.NsPerOp / fast.NsPerOp
}

var sinkBool bool

func sink(b bool) { sinkBool = sinkBool != b }

// pairWorkload mirrors the dominance package's benchmark fixture: one fixed
// non-overlapping (Sa, Sb) pair and a query batch straddling the dominance
// boundary — points sharing the sphere-query centers, so the two workloads
// differ only in query fatness.
func pairWorkload(rng *rand.Rand, d, nq int) (sa, sb geom.Sphere, points, spheres []geom.Sphere) {
	for {
		sa = randSphere(rng, d, 1.5)
		sb = randSphere(rng, d, 1.5)
		if !geom.Overlap(sa, sb) {
			break
		}
	}
	points = make([]geom.Sphere, nq)
	spheres = make([]geom.Sphere, nq)
	for i := 0; i < nq; i++ {
		c := make([]float64, d)
		for j := range c {
			c[j] = (sa.Center[j]+sb.Center[j])/2 + rng.NormFloat64()*6
		}
		points[i] = geom.Point(c)
		spheres[i] = geom.NewSphere(c, rng.Float64()*2)
	}
	return sa, sb, points, spheres
}

func randSphere(rng *rand.Rand, d int, maxR float64) geom.Sphere {
	c := make([]float64, d)
	for j := range c {
		c[j] = rng.Float64() * 10
	}
	return geom.NewSphere(c, rng.Float64()*maxR)
}

// knnFixture mirrors the knn package's allocation fixture: a 10k-item
// SS-tree of Gaussian spheres and a query batch from the same distribution.
// The caller wraps the tree for the pointer walk or its Freeze for the
// packed one; the raw item set rides along for the shard-scaling section,
// which builds its own partitioned trees.
func knnFixture(n, d int) (*sstree.Tree, []geom.Item, []geom.Sphere) {
	rng := rand.New(rand.NewSource(7001))
	items := gaussianItems(rng, n, d)
	t := sstree.New(d)
	for _, it := range items {
		t.Insert(it)
	}
	queries := make([]geom.Sphere, 16)
	for i := range queries {
		queries[i] = gaussianSphere(rng, d)
	}
	return t, items, queries
}

// gaussianItems draws n spheres with gaussianSphere, IDs 0..n-1.
func gaussianItems(rng *rand.Rand, n, d int) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		items[i] = geom.Item{ID: i, Sphere: gaussianSphere(rng, d)}
	}
	return items
}

// gaussianSphere draws the fixtures' sphere: d centre coordinates
// N(100, 25), then a radius U[0, 2).
func gaussianSphere(rng *rand.Rand, d int) geom.Sphere {
	c := make([]float64, d)
	for j := range c {
		c[j] = 100 + rng.NormFloat64()*25
	}
	return geom.NewSphere(c, rng.Float64()*2)
}
