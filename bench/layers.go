package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"hyperdom/internal/dataset"
	"hyperdom/internal/dominance"
	"hyperdom/internal/engine"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
	"hyperdom/internal/poly"
	"hyperdom/internal/server"
	"hyperdom/internal/shard"
	"hyperdom/internal/sstree"
	"hyperdom/internal/stats"
	"hyperdom/internal/vec"
)

const (
	// traceRequests is how many requests the traced run replays serially
	// through each boundary: enough for medians and a p90 (≥10 beyond),
	// few enough that a dozen passes over the slowest workload fit a run.
	traceRequests = 200
	// bruteRequests bounds the knn.BruteForce pass, which costs ~1 µs per
	// item per query (140 ms at n = 100,000).
	bruteRequests = 24
	// auxCount is how many of each secondary op (explain, dominates,
	// reject) are timed through the handler.
	auxCount = 100
	// vecBlock is the entry count of the kernel micro-measurements.
	vecBlock = 4096
	// reconcileFloor is the ROADMAP's "stages sum to ≥ 90 %" rule.
	reconcileFloor = 0.90
)

var crit = dominance.Hyperbola{}

// layerRun is one traced run: the trace set, the in-memory span log, the
// in-process copies of every layer, and the per-request timings.
type layerRun struct {
	p   *prepared
	out *outcome
	tl  *tally
	tr  *tracer

	trace []request // first traceRequests of the workload's request list
	kq    []int     // indexes into trace of the kNN-kind requests

	// One whole-corpus SS-tree built by insertion twice over — identical
	// trees, one left as pointers, one frozen — plus the flat baseline.
	pointer, single, flat knn.Index
	searcher              *knn.Searcher
	eng, fleetEng         *engine.Engine // GOMAXPROCS workers; the shard fleet's worker total
	x                     *shard.Index   // what hyperdomd would serve
	srv                   *server.Server
	ts                    *httptest.Server
	conn                  *conn
	chk                   *checker

	us map[string][]float64 // boundary → microseconds, per kq entry (per trace entry for "handler.all")

	packedStats                       []knn.Stats
	results, candidates, mergeResults float64
	coarsePrunes                      float64
	queueUs, stragglers, selfShardUs  []float64
	slowestUs, mergeUs                []float64
	respBytes                         float64
}

// traced is the per-layer run. In process, it builds the same corpus and
// index the server would, and replays the first traceRequests requests
// serially. Each request goes through every boundary back to back, outermost
// in — loopback HTTP → handler → shard.Index → engine → knn.Searcher (every
// tier and baseline) — so the timings a self time is the difference of
// were taken milliseconds apart, under the same host and cache state. Each
// call is timed from outside and the Stats/Explain values the layers return
// are read. It then starts one real child for the process-level numbers
// and the open-loop ladder.
func traced(p *prepared, o runOpts, launch launcher) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var tl tally
	defer func() { out.attempted, out.failed = tl.attempted.Load(), tl.failed.Load() }()

	// Mirror hyperdomd's process-wide defaults.
	obs.SetEnabled(true)
	knn.SetQuantMode(knn.QuantF32)

	l := &layerRun{p: p, out: out, tl: &tl, tr: newTracer(), trace: p.reqs, us: map[string][]float64{}}
	if len(l.trace) > traceRequests {
		l.trace = l.trace[:traceRequests]
	}
	for i, r := range l.trace {
		if r.k > 0 {
			l.kq = append(l.kq, i)
		}
	}
	if len(l.kq) < bruteRequests {
		return out, fmt.Errorf("trace set has %d kNN requests, need %d", len(l.kq), bruteRequests)
	}
	defer l.close()
	if err := l.build(); err != nil {
		return out, err
	}
	l.replay()
	if err := l.report(); err != nil {
		return out, err
	}
	l.allocations()
	l.secondaryOps()
	l.dominance()
	vecLayer(out, p.spec.d)
	if err := l.tr.write(filepath.Join(o.outDir, p.spec.name+".trace.json")); err != nil {
		return out, err
	}
	l.close() // release the in-process pools before the child competes for cores
	return out, processLevel(p, o, launch, median(l.us["handler.all"]), out, &tl)
}

// build constructs every layer in process and times the set-up pieces:
// dataset, sstree, packed and shard.
func (l *layerRun) build() error {
	p, out, s := l.p, l.out, l.p.spec
	csvPath := p.in.csvPath
	if csvPath == "" {
		csvPath = filepath.Join(p.dir, "corpus.csv")
		if err := writeCSV(csvPath, p.items); err != nil {
			return err
		}
	}
	t0 := time.Now()
	f, err := os.Open(csvPath)
	if err != nil {
		return err
	}
	loaded, err := dataset.LoadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	out.set("dataset.load_csv_ms", msSince(t0))
	l.tl.note(len(loaded) == len(p.items))

	bulk := sstree.New(s.d)
	t0 = time.Now()
	bulk.BulkLoad(p.items)
	out.set("sstree.bulkload_ns_per_item", float64(time.Since(t0).Nanoseconds())/float64(len(p.items)))

	// Built by insertion, exactly as each shard builds its own tree.
	grow := func() *sstree.Tree {
		t := sstree.New(s.d)
		for _, it := range p.items {
			t.Insert(it)
		}
		return t
	}
	l.pointer = knn.WrapSSTree(grow())
	frozen := grow()
	t0 = time.Now()
	pk := frozen.Freeze()
	out.set("packed.freeze_ms", msSince(t0))
	l.single = knn.WrapPacked(pk)
	l.flat = knn.WrapPacked(flatTree(p.items, s.d))
	l.searcher = knn.NewSearcher()

	// packed: the on-disk form of the same tree.
	snapPath := filepath.Join(p.dir, "single.hds")
	if err := pk.Save(snapPath); err != nil {
		return err
	}
	t0 = time.Now()
	snap, err := packed.Open(snapPath)
	if err != nil {
		return err
	}
	out.set("packed.open_ms", msSince(t0))
	out.set("packed.snapshot_bytes_per_item", float64(snap.SizeBytes())/float64(len(p.items)))
	if err := snap.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	if snap, err = packed.Load(snapPath); err != nil {
		return err
	}
	out.set("packed.load_verify_ms", msSince(t0))
	if err := snap.Close(); err != nil {
		return err
	}

	workers := runtime.GOMAXPROCS(0)
	perShard := (workers + s.shards - 1) / s.shards
	l.eng = engine.New(l.single, engine.WithWorkers(workers), engine.WithAlgorithm(knn.HS))
	l.fleetEng = engine.New(l.single, engine.WithWorkers(perShard*s.shards), engine.WithAlgorithm(knn.HS))

	// shard: heap-built, saved, and reopened; serve from whichever form
	// the real server would.
	t0 = time.Now()
	built, err := shard.Build(p.items, s.d, serveOptions(s))
	if err != nil {
		return err
	}
	out.set("shard.build_ms", msSince(t0))
	snapDir := filepath.Join(p.dir, "traced-snap")
	if err := built.SaveDir(snapDir); err != nil {
		built.Close()
		return err
	}
	t0 = time.Now()
	opened, err := shard.OpenDir(snapDir, shard.OpenOptions{Algorithm: knn.HS, Label: "default"})
	if err != nil {
		built.Close()
		return err
	}
	out.set("shard.open_dir_ms", msSince(t0))
	if s.snapshot {
		built, opened = opened, built
	}
	opened.Close()
	l.x = built
	l.srv = server.New()
	if err := l.srv.AddCollection("default", l.x); err != nil {
		l.x.Close()
		return err
	}
	l.srv.SetReady(true)
	l.ts = httptest.NewServer(l.srv.Handler())
	l.conn = &conn{hc: newHTTPClient(1), base: l.ts.URL}
	l.chk = newChecker(l.trace)
	return nil
}

// close releases everything build started; safe to call twice.
func (l *layerRun) close() {
	if l.ts != nil {
		l.conn.hc.CloseIdleConnections()
		l.ts.Close()
		l.ts = nil
	}
	if l.srv != nil {
		l.srv.Close() // closes l.x
		l.srv = nil
	}
	for _, e := range []*engine.Engine{l.eng, l.fleetEng} {
		if e != nil {
			e.Close()
		}
	}
	l.eng, l.fleetEng = nil, nil
	if l.searcher != nil {
		l.searcher.Close()
		l.searcher = nil
	}
}

// timed runs f as a span of request req and files its microseconds under
// the boundary's name.
func (l *layerRun) timed(name, parent string, req int, f func()) {
	l.us[name] = append(l.us[name], l.tr.timed(name, parent, req, f))
}

// replay sends every request of the trace set through every boundary.
func (l *layerRun) replay() {
	h := l.srv.Handler()
	roundtrip := func(t *tracer, i int) float64 {
		return t.timed("http.roundtrip", "", i, func() {
			status, body, err := l.conn.do(&l.trace[i])
			l.tl.note(err == nil && l.chk.ok(i, status, body))
		})
	}
	roundtrip(nil, 0) // connection set-up
	brute := 0
	for i := range l.trace {
		r := &l.trace[i]
		if r.k > 0 {
			// Prime: fault in and cache what this query touches, in both
			// index forms, so no boundary below pays for being first.
			l.searcher.Search(l.single, r.query, r.k, crit, knn.HS)
			l.x.Search(r.query, r.k)
		}

		// Outermost boundaries, for every request. The untraced and the
		// traced round trip alternate order so neither is always second.
		var rtTraced, rtUntraced float64
		if i%2 == 0 {
			rtUntraced, rtTraced = roundtrip(nil, i), roundtrip(l.tr, i)
		} else {
			rtTraced, rtUntraced = roundtrip(l.tr, i), roundtrip(nil, i)
		}
		w, req := &sink{}, newRecorderRequest(r)
		handlerUs := l.tr.timed("server.handler", "http.roundtrip", i, func() { h.ServeHTTP(w, req) })
		l.tl.note(w.status == r.status)
		l.respBytes += float64(w.n)
		l.us["handler.all"] = append(l.us["handler.all"], handlerUs)
		l.us["roundtrip.all"] = append(l.us["roundtrip.all"], rtTraced)
		l.us["roundtrip.untraced.all"] = append(l.us["roundtrip.untraced.all"], rtUntraced)
		if r.k == 0 {
			continue
		}
		l.us["roundtrip"] = append(l.us["roundtrip"], rtTraced)
		l.us["handler"] = append(l.us["handler"], handlerUs)

		// shard: with the trace tree, without it, and with obs off.
		var sharded knn.Result
		var ex *shard.Explain
		l.timed("shard.search", "server.handler", i, func() { sharded, ex = l.x.SearchExplain(r.query, r.k) })
		l.explainSpans(i, ex)
		l.timed("shard.plain", "", i, func() { l.x.Search(r.query, r.k) })
		obs.SetEnabled(false)
		l.timed("shard.obs_off", "", i, func() { l.x.Search(r.query, r.k) })
		obs.SetEnabled(true)

		// engine: the pool hand-off over the single index.
		l.timed("engine.search", "shard.search", i, func() { l.eng.Search(r.query, r.k) })
		l.timed("engine.fleet", "", i, func() { l.fleetEng.Search(r.query, r.k) })

		// knn: the serving tier, the other tiers, and the baselines.
		search := func(name string, idx knn.Index) knn.Result {
			var res knn.Result
			l.timed(name, "engine.search", i, func() { res = l.searcher.Search(idx, r.query, r.k, crit, knn.HS) })
			return res
		}
		answers := []knn.Result{sharded, search("knn.packed", l.single)}
		l.packedStats = append(l.packedStats, answers[1].Stats)
		l.results += float64(len(answers[1].Items))
		knn.SetQuantMode(knn.QuantNone)
		answers = append(answers, search("knn.packed_none", l.single))
		knn.SetQuantMode(knn.QuantI8)
		answers = append(answers, search("knn.packed_i8", l.single))
		knn.SetQuantMode(knn.QuantF32)
		answers = append(answers, search("knn.pointer", l.pointer), search("knn.flat", l.flat))
		if brute < bruteRequests {
			brute++
			var res knn.Result
			l.timed("knn.brute", "engine.search", i, func() { res = knn.BruteForce(l.p.items, r.query, r.k, crit) })
			answers = append(answers, res)
		}
		// Every way of answering must return the same ids.
		want := sortedIDs(answers[len(answers)-1])
		for _, a := range answers[:len(answers)-1] {
			l.tl.note(reflect.DeepEqual(sortedIDs(a), want))
		}
	}
}

func sortedIDs(r knn.Result) []int {
	ids := r.IDs()
	sort.Ints(ids)
	return ids
}

// explainSpans turns the Explain tree shard.SearchExplain returned for
// request i into child spans of the shard.search span just recorded, and
// into that search's self time.
func (l *layerRun) explainSpans(i int, ex *shard.Explain) {
	search := l.tr.spans[len(l.tr.spans)-1]
	spanUs := make([]float64, len(ex.Shards))
	for k, sp := range ex.Shards {
		spanUs[k] = float64(sp.LatencyNs) / 1e3
		l.queueUs = append(l.queueUs, float64(sp.QueueWaitNs)/1e3)
		l.coarsePrunes += float64(sp.CoarsePrunes)
		lane := fmt.Sprintf("shard.%d", sp.Shard)
		l.tr.add(lane, "shard.search", i, search.start, time.Duration(sp.LatencyNs))
		l.tr.add(lane+".queue_wait", lane, i, search.start, time.Duration(sp.QueueWaitNs))
	}
	mergeDur := time.Duration(ex.Merge.LatencyNs)
	l.tr.add("shard.merge", "shard.search", i, search.start+search.dur-mergeDur, mergeDur)
	mergeUs := float64(ex.Merge.LatencyNs) / 1e3
	slow := 0.0
	for _, us := range spanUs {
		slow = math.Max(slow, us)
	}
	searchUs := float64(search.dur.Nanoseconds()) / 1e3
	l.slowestUs = append(l.slowestUs, slow)
	l.mergeUs = append(l.mergeUs, mergeUs)
	l.selfShardUs = append(l.selfShardUs, selfTimeUs(searchUs, []float64{mergeUs}, spanUs))
	l.stragglers = append(l.stragglers, slow/stats.Mean(spanUs))
	l.candidates += float64(ex.Merge.Candidates)
	l.mergeResults += float64(ex.Merge.Results)
}

// report reduces the replay's timings and counts to metrics.
func (l *layerRun) report() error {
	out, us, nq := l.out, l.us, float64(len(l.kq))
	p50 := func(name string) float64 { return median(us[name]) }

	out.set("knn.packed_p50_us", p50("knn.packed"))
	out.set("knn.packed_none_p50_us", p50("knn.packed_none"))
	out.set("knn.packed_i8_p50_us", p50("knn.packed_i8"))
	out.set("knn.pointer_p50_us", p50("knn.pointer"))
	out.set("knn.flat_p50_us", p50("knn.flat"))
	out.set("knn.brute_p50_us", p50("knn.brute"))
	// > 1: the tree is slower than scanning one flat leaf.
	out.set("knn.tree_vs_flat_ratio", median(ratios(us["knn.packed"], us["knn.flat"])))
	var items, nodes, checks, pruned, totalUs float64
	for j, st := range l.packedStats {
		items += float64(st.Items)
		nodes += float64(st.NodesVisited)
		checks += float64(st.DomChecks)
		pruned += float64(st.Pruned)
		totalUs += us["knn.packed"][j]
	}
	out.set("knn.items_scanned_per_query", items/nq)
	out.set("knn.scan_fraction", items/nq/float64(len(l.p.items)))
	out.set("knn.nodes_visited_per_query", nodes/nq)
	out.set("knn.dom_checks_per_query", checks/nq)
	out.set("knn.pruned_per_query", pruned/nq)
	out.set("knn.results_per_query", l.results/nq)
	out.set("knn.ns_per_item_scanned", totalUs*1e3/items)

	out.set("engine.search_p50_us", p50("engine.search"))
	out.set("engine.handoff_p50_us", median(pairedDiff(us["engine.search"], us["knn.packed"])))

	p90, err := pctl("shard.search_p90_us", us["shard.search"], 0.90)
	if err != nil {
		return err
	}
	out.set("shard.search_p50_us", p50("shard.search"))
	out.set("shard.search_p90_us", p90)
	out.set("shard.self_p50_us", median(l.selfShardUs))
	out.set("shard.merge_p50_us", median(l.mergeUs))
	out.set("shard.queue_wait_p50_us", median(l.queueUs))
	out.set("shard.straggler_ratio", median(l.stragglers))
	out.set("shard.candidates_per_query", l.candidates/nq)
	out.set("shard.useful_ratio", l.mergeResults/l.candidates)
	out.set("shard.explain_overhead_ratio", median(ratios(us["shard.search"], us["shard.plain"])))
	// > 1: scatter-gather over shards is slower than one packed index
	// behind one engine with the fleet's worker total.
	out.set("shard.vs_single_ratio", median(ratios(us["shard.plain"], us["engine.fleet"])))
	out.set("packed.coarse_prunes_per_query", l.coarsePrunes/nq)
	out.set("obs.enabled_overhead_ratio", median(ratios(us["shard.plain"], us["shard.obs_off"])))

	selfServer := median(pairedDiff(us["handler"], us["shard.search"]))
	out.set("server.handler_p50_us", p50("handler.all"))
	out.set("server.self_p50_us", selfServer)
	out.set("server.self_share", selfServer/p50("handler"))
	out.set("server.resp_bytes_per_req", l.respBytes/float64(len(l.trace)))

	selfHTTP := median(pairedDiff(us["roundtrip"], us["handler"]))
	sumSelf := selfHTTP + selfServer + median(l.selfShardUs) + median(l.slowestUs) + median(l.mergeUs)
	reconcile := sumSelf / p50("roundtrip")
	out.set("trace.http_self_p50_us", selfHTTP)
	out.set("trace.reconcile_ratio", reconcile)
	out.set("trace.overhead_ratio", median(ratios(us["roundtrip.all"], us["roundtrip.untraced.all"])))
	if reconcile < reconcileFloor {
		fmt.Fprintf(os.Stderr, "bench: %s: trace.reconcile_ratio %.3f is below %.2f: the medians of the self times sum to less than the round-trip median\n",
			l.p.spec.name, reconcile, reconcileFloor)
	}
	return nil
}

// ratios is a[i] / b[i], request by request.
func ratios(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

// allocations counts heap allocations per call at three boundaries, GC
// cycles under the handler, and the engine's batch throughput.
func (l *layerRun) allocations() {
	out, n := l.out, len(l.kq)
	query := func(j int) *request { return &l.trace[l.kq[j]] }
	out.set("knn.allocs_per_search", allocsPer(n, func(j int) {
		l.searcher.Search(l.single, query(j).query, query(j).k, crit, knn.HS)
	}))
	out.set("shard.allocs_per_query", allocsPer(n, func(j int) { l.x.Search(query(j).query, query(j).k) }))

	// The handler path, net of what the harness's own request construction
	// costs against a handler that does nothing.
	noop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { _, _ = io.Copy(io.Discard, r.Body) })
	replay := func(h http.Handler) (mallocs, bytes, gcs float64) {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := range l.trace {
			h.ServeHTTP(&sink{}, newRecorderRequest(&l.trace[i]))
		}
		runtime.ReadMemStats(&b)
		return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc), float64(b.NumGC - a.NumGC)
	}
	baseMallocs, baseBytes, _ := replay(noop)
	mallocs, bytes, gcs := replay(l.srv.Handler())
	all := float64(len(l.trace))
	out.set("server.allocs_per_req", (mallocs-baseMallocs)/all)
	out.set("server.alloc_bytes_per_req", (bytes-baseBytes)/all)
	out.set("server.gc_cycles_per_kreq", gcs*1e3/all)

	batch := make([]geom.Sphere, n)
	for j := range batch {
		batch[j] = query(j).query
	}
	qpsN := batchQPS(l.eng, batch)
	one := engine.New(l.single, engine.WithWorkers(1), engine.WithAlgorithm(knn.HS))
	qps1 := batchQPS(one, batch)
	one.Close()
	out.set("engine.batch_qps_w1", qps1)
	out.set("engine.batch_qps_wN", qpsN)
	out.set("engine.scaling", needsCores(qpsN/qps1))
}

// secondaryOps times explain, dominates and rejected requests through the
// handler on every workload, whether or not its load mix has them.
func (l *layerRun) secondaryOps() {
	h := l.srv.Handler()
	for _, aux := range []struct {
		kind   opKind
		metric string
	}{{opExplain, "server.explain_p50_us"}, {opDominates, "server.dominates_p50_us"}, {opReject, "server.reject_p50_us"}} {
		reqs := l.p.spec.auxRequests(l.p.items, aux.kind, auxCount, int64(len(l.p.items)))
		us := make([]float64, len(reqs))
		for i := range reqs {
			w, req := &sink{}, newRecorderRequest(&reqs[i])
			us[i] = l.tr.timed("server."+aux.kind.String(), "", -1, func() { h.ServeHTTP(w, req) })
			l.tl.note(w.status == reqs[i].status)
		}
		l.out.set(aux.metric, median(us))
	}
}

// dominance times the final Definition 2 filter the way the merge layer
// runs it — one PreparedPair reset per candidate against the global Sk —
// and the unprepared Hyperbola criterion, on the (Sk, candidate, query)
// triples the workload's own answers produce.
func (l *layerRun) dominance() {
	type triple struct{ sk, cand, q geom.Sphere }
	var triples []triple
	for _, i := range l.kq {
		r := &l.trace[i]
		cs := knn.SearchCandidates(l.single, r.query, r.k, crit, knn.HS, nil)
		if len(cs.Candidates) < r.k {
			continue
		}
		sk := cs.Candidates[r.k-1].Item.Sphere
		for _, c := range cs.Candidates {
			triples = append(triples, triple{sk, c.Item.Sphere, r.query})
		}
	}
	var pp dominance.PreparedPair
	verdicts := 0
	prepared := medianOfRuns(func() {
		for _, t := range triples {
			pp.Reset(t.sk, t.cand)
			if pp.Dominates(t.q) {
				verdicts++
			}
		}
	})
	plain := medianOfRuns(func() {
		for _, t := range triples {
			if crit.Dominates(t.sk, t.cand, t.q) {
				verdicts--
			}
		}
	})
	l.tl.note(verdicts == 0) // both paths prune exactly the same candidates
	quartics := 0
	for _, t := range triples {
		pp.Reset(t.sk, t.cand)
		before := pp.QuarticSolves()
		pp.Dominates(t.q)
		if pp.QuarticSolves() > before {
			quartics++
		}
	}
	pp.FlushObs()
	n := float64(len(triples))
	l.out.set("dominance.prepared_ns", prepared/n)
	l.out.set("dominance.hyperbola_ns", plain/n)
	l.out.set("dominance.quartic_share", float64(quartics)/n)
	l.out.set("dominance.checks_per_result", n/l.results)

	rng := rand.New(rand.NewSource(1))
	coef := make([][5]float64, 1024)
	for i := range coef {
		for j := range coef[i] {
			coef[i][j] = rng.NormFloat64()
		}
	}
	roots := 0
	quartic := medianOfRuns(func() {
		for _, c := range coef {
			_, k := poly.Quartic4(c[0], c[1], c[2], c[3], c[4])
			roots += k
		}
	})
	l.tl.note(roots > 0)
	l.out.set("poly.quartic4_ns", quartic/float64(len(coef)))
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// needsCores returns a scaling ratio, or NaN (emitted as null) on a
// machine with fewer than two cores, where the ratio would measure the
// scheduler and not scaling.
func needsCores(ratio float64) float64 {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		return math.NaN()
	}
	return ratio
}

// allocsPer is the mean heap allocation count of n calls.
func allocsPer(n int, f func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// batchQPS is the engine's throughput over repeated batches for at least
// a quarter second.
func batchQPS(e *engine.Engine, queries []geom.Sphere) float64 {
	done := 0
	t0 := time.Now()
	for time.Since(t0) < 250*time.Millisecond {
		e.SearchBatch(queries, 10)
		done += len(queries)
	}
	return float64(done) / time.Since(t0).Seconds()
}

// flatTree is the dumbest index that could do the job: one packed leaf
// holding every item under a root sphere that bounds them all, so a search
// is a single pass of the leaf kernels over the whole corpus.
func flatTree(items []geom.Item, dim int) *packed.Tree {
	center := make([]float64, dim)
	for _, it := range items {
		for d, c := range it.Sphere.Center {
			center[d] += c / float64(len(items))
		}
	}
	radius := 0.0
	for _, it := range items {
		radius = math.Max(radius, vec.Dist(center, it.Sphere.Center)+it.Sphere.Radius)
	}
	b := packed.NewBuilder(packed.KindSphere, dim)
	return b.FinishSphere(b.Leaf(items), center, radius)
}

// sink is the cheapest http.ResponseWriter: it counts bytes.
type sink struct {
	header http.Header
	status int
	n      int
}

func (s *sink) Header() http.Header {
	if s.header == nil {
		s.header = http.Header{}
	}
	return s.header
}

func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}

func (s *sink) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	s.n += len(b)
	return len(b), nil
}

// newRecorderRequest turns one generated operation into a server-side
// request for calling the handler directly.
func newRecorderRequest(r *request) *http.Request {
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// medianOfRuns times f five times and returns the median in nanoseconds.
func medianOfRuns(f func()) float64 {
	runs := make([]float64, 5)
	for i := range runs {
		t0 := time.Now()
		f()
		runs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(runs)
}

// vecLayer times the three block kernels the packed traversal streams
// over, on vecBlock random entries at dimensionality d.
func vecLayer(out *outcome, d int) {
	rng := rand.New(rand.NewSource(2))
	centers := make([]float64, vecBlock*d)
	centers32 := make([]float32, vecBlock*d)
	for i := range centers {
		centers[i] = 100 + rng.NormFloat64()*25
		centers32[i] = float32(centers[i])
	}
	radii := make([]float64, vecBlock)
	radii32 := make([]float32, vecBlock)
	slack := make([]float32, vecBlock)
	for i := range radii {
		radii[i] = rng.Float64()
		radii32[i] = float32(radii[i])
		slack[i] = 1e-5
	}
	q := make([]float64, d)
	for i := range q {
		q[i] = 100 + rng.NormFloat64()*25
	}
	dst := make([]float64, vecBlock)
	const reps = 64
	perItem := func(f func()) float64 {
		return medianOfRuns(func() {
			for r := 0; r < reps; r++ {
				f()
			}
		}) / (reps * vecBlock)
	}
	out.set("vec.dist_block_ns_per_item", perItem(func() { vec.DistBlock(dst, centers, q) }))
	out.set("vec.mindist_sphere_block_ns_per_item", perItem(func() { vec.MinDistSphereBlock(dst, centers, radii, q, 0.5) }))
	out.set("vec.mindist_sphere_block_f32_ns_per_item", perItem(func() { vec.MinDistSphereBlockF32(dst, centers32, radii32, slack, q, 0.5) }))
}
