package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"time"

	"hyperdom/internal/dataset"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/shard"
)

const (
	// closedConns is the closed-loop client count: two callers that each
	// wait for their reply, no more than the cores of the 2-core box the
	// suite was sized on.
	closedConns = 2
	// openWorkers caps the open loop's concurrent sends; it only has to
	// exceed rate × latency at the highest ladder step.
	openWorkers = 32
	// subWindows cuts the closed-loop window for loadgen.window_qps_spread,
	// the run's own steadiness figure.
	subWindows = 5
	// verifySamples is how many kNN requests are checked id-for-id against
	// knn.BruteForce before load starts.
	verifySamples = 32
	// minSetupPhase and maxSetups size the set-up phase for servers that
	// start in milliseconds (snapshot cold starts).
	minSetupPhase = 1500 * time.Millisecond
	maxSetups     = 25
	// maxLoadgenShare aborts a run whose load generator used more than
	// this share of one core: past it the client, not the server, may be
	// what is being measured.
	maxLoadgenShare = 0.6
)

// runOpts sizes one run.
type runOpts struct {
	seconds float64       // measured window
	warm    time.Duration // unmeasured warm-up before it
	setups  int           // server starts per run; setup_s is their median
	verify  bool
	outDir  string // scratch + trace output, inside the checkout
}

// outcome is one run's metrics plus the operation counts of the contract.
type outcome struct {
	metrics   map[string]float64 // NaN = not measurable here (emitted as null)
	attempted int64
	failed    int64
	notes     []string // printed under the metrics, not part of the result line
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// prepared is a workload's generated inputs, on disk and in memory.
type prepared struct {
	spec  spec
	items []geom.Item
	reqs  []request
	dir   string // scratch directory, removed by cleanup
	in    serverInputs
}

func (p *prepared) cleanup() { reap.removeDir(p.dir) }

// prepare generates the corpus and request list from the seed and writes
// the only thing the server will see: a CSV corpus, or for snapshot
// workloads a directory saved by shard.Build + SaveDir.
func prepare(s spec, seed int64, outDir string) (*prepared, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "tmp-"+s.name+"-")
	if err != nil {
		return nil, err
	}
	reap.addDir(dir)
	p := &prepared{spec: s, dir: dir, in: serverInputs{shards: s.shards}}
	p.items = s.corpus(seed)
	p.reqs = s.requestList(p.items, seed)
	if s.snapshot {
		p.in.snapshotDir = filepath.Join(dir, "snap")
		err = saveSnapshot(p.items, s, filepath.Join(p.in.snapshotDir, "default"))
	} else {
		p.in.csvPath = filepath.Join(dir, "corpus.csv")
		err = writeCSV(p.in.csvPath, p.items)
	}
	if err != nil {
		p.cleanup()
		return nil, err
	}
	return p, nil
}

func writeCSV(path string, items []geom.Item) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dataset.WriteCSV(f, items); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveOptions mirrors hyperdomd's defaults (HS traversal, SS-tree).
func serveOptions(s spec) shard.Options {
	return shard.Options{Shards: s.shards, Algorithm: knn.HS, Label: "default"}
}

func saveSnapshot(items []geom.Item, s spec, dir string) error {
	x, err := shard.Build(items, s.d, serveOptions(s))
	if err != nil {
		return err
	}
	defer x.Close()
	return x.SaveDir(dir)
}

// verifyAgainstOracle sends verifySamples kNN requests spread over the
// list and compares each answer's id set with knn.BruteForce over the
// same corpus. Mismatches are failed operations.
func verifyAgainstOracle(t *target, hc *http.Client, p *prepared, chk *checker, tl *tally) error {
	var picks []int
	for i, r := range p.reqs {
		if r.k > 0 {
			picks = append(picks, i)
		}
	}
	if len(picks) == 0 {
		return errors.New("verify: workload has no kNN requests")
	}
	stride := len(picks) / verifySamples
	if stride < 1 {
		stride = 1
	}
	c := &conn{hc: hc, base: t.url}
	for n, j := 0, 0; n < verifySamples && j < len(picks); n, j = n+1, j+stride {
		i := picks[j]
		r := &p.reqs[i]
		status, body, err := c.do(r)
		ok := err == nil && chk.ok(i, status, body)
		if ok {
			got, perr := idsOf(body)
			want := sortedIDs(knn.BruteForce(p.items, r.query, r.k, crit))
			ok = perr == nil && reflect.DeepEqual(got, want)
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: verify: request %d (%s): %d ids from server, %d from brute force\n",
					i, r.kind, len(got), len(want))
			}
		}
		tl.note(ok)
	}
	return nil
}

// closedStats is one measured closed-loop window against a live target.
type closedStats struct {
	latMs        []float64 // successful requests, pooled over the window
	rates        []float64 // completions per second, per sub-window
	qps          float64   // successes per second of granted CPU time
	cpuPerReqMs  float64   // target CPU ÷ successful requests
	ownPerReqMs  float64   // harness CPU ÷ successful requests: the machine-speed probe
	loadgenShare float64   // harness CPU ÷ wall, in cores
	stealShare   float64   // share of wanted CPU time the hypervisor withheld
}

// speed is how fast this machine ran during the window relative to the
// state the workload's constants were frozen in: the load generator does
// the same work for every request on every commit (build it, send it, read
// and checksum the answer), so its own CPU time per request measures the
// machine, concurrently with the window and at no extra load. The box the
// suite was sized on changes speed by 30 % for minutes at a time with no
// steal showing (a co-tenant coming and going): server CPU per request,
// median latency and the load generator's CPU per request all move by the
// same factor, so times × speed and rates ÷ speed repeat within ~5 % where
// the raw numbers spread 25–45 %. 1 when the server shares the harness's
// process and the two CPU times cannot be told apart.
func (cs closedStats) speed(t *target, s spec) float64 {
	if !t.external || cs.ownPerReqMs <= 0 {
		return 1
	}
	return s.seedOwnMs / cs.ownPerReqMs
}

// clocks is one reading of the three CPU clocks a measured interval is
// judged by: the target's and the harness's own process CPU time, and the
// machine-wide busy and steal time.
type clocks struct{ target, own, busy, steal float64 }

func readClocks(targetPID int) (c clocks, err error) {
	if c.target, err = cpuSeconds(targetPID); err != nil {
		return c, err
	}
	if c.own, err = cpuSeconds(os.Getpid()); err != nil {
		return c, err
	}
	c.busy, c.steal, err = hostCPU()
	return c, err
}

// granted is the share of the CPU time this machine's processes wanted
// between two readings that the hypervisor actually granted: 1 on bare
// metal or a quiet host. The box the suite was sized on is a VM whose host
// withholds 0–35 % of wanted CPU time for minutes at a stretch; wall-clock
// rates measured there repeat within ±20 %, the same rates per granted
// second within ±4 %.
func (c clocks) granted(since clocks) float64 {
	busy, steal := c.busy-since.busy, c.steal-since.steal
	if busy+steal <= 0 {
		return 1
	}
	return busy / (busy + steal)
}

// measureClosed warms the target up, then runs the closed loop for dur
// between two readings of the CPU clocks.
func measureClosed(t *target, hc *http.Client, chk *checker, tl *tally, warm, dur time.Duration) (closedStats, error) {
	var cursor atomic.Uint64
	closedLoop(t.url, hc, chk, tl, closedConns, warm, &cursor)

	before, err := readClocks(t.pid)
	if err != nil {
		return closedStats{}, err
	}
	loop := closedLoop(t.url, hc, chk, tl, closedConns, dur, &cursor)
	after, err := readClocks(t.pid)
	if err != nil {
		return closedStats{}, err
	}
	if len(loop.latMs) == 0 {
		return closedStats{}, errors.New("closed loop: no successful request")
	}
	granted := after.granted(before)
	cs := closedStats{
		latMs:        loop.latMs,
		rates:        windowRates(loop.doneAt, loop.span, subWindows),
		qps:          float64(len(loop.latMs)) / (loop.span * granted),
		cpuPerReqMs:  (after.target - before.target) * 1e3 / float64(len(loop.latMs)),
		ownPerReqMs:  (after.own - before.own) * 1e3 / float64(len(loop.latMs)),
		loadgenShare: (after.own - before.own) / loop.span,
		stealShare:   1 - granted,
	}
	if t.external && cs.loadgenShare > maxLoadgenShare {
		return cs, fmt.Errorf("load generator used %.2f of a core (limit %.2f): the client may be the bottleneck",
			cs.loadgenShare, maxLoadgenShare)
	}
	return cs, nil
}

// endToEnd is the untraced run: real server, default flags, closed loop.
// It produces exactly the end-to-end metrics.
func endToEnd(p *prepared, o runOpts, launch launcher) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var tl tally
	defer func() { out.attempted, out.failed = tl.attempted.Load(), tl.failed.Load() }()

	// Set-up is timed over several cold starts — at least o.setups, and
	// for fast starts as many as fit minSetupPhase, so the phase is long
	// enough for the granted-time share to be read off 10-ms ticks. The
	// last server stays up for the load phase.
	before, err := readClocks(os.Getpid())
	if err != nil {
		return out, err
	}
	var setups []float64
	var t *target
	for phase := time.Now(); len(setups) < o.setups || (time.Since(phase) < minSetupPhase && len(setups) < maxSetups); {
		if t != nil {
			t.stop()
		}
		if t, err = launch(p.in); err != nil {
			return out, err
		}
		setups = append(setups, t.setupS)
	}
	defer t.stop()
	after, err := readClocks(os.Getpid())
	if err != nil {
		return out, err
	}
	granted := after.granted(before)

	chk := newChecker(p.reqs)
	hc := newHTTPClient(closedConns)
	defer hc.CloseIdleConnections()
	if o.verify {
		if err := verifyAgainstOracle(t, hc, p, chk, &tl); err != nil {
			return out, err
		}
	}
	cs, err := measureClosed(t, hc, chk, &tl, o.warm, time.Duration(o.seconds*float64(time.Second)))
	if err != nil {
		return out, err
	}
	p50, err := pctl("lat_p50_ms", cs.latMs, 0.50)
	if err != nil {
		return out, err
	}
	hwm, err := memMB(t.pid, "VmHWM")
	if err != nil {
		return out, err
	}
	// Times are reported at the reference machine speed (see speed). Only
	// the rate is also per granted second: steal takes whole slices of
	// wall time, which lowers throughput in proportion but misses the
	// median request, and is not booked to any process's CPU time.
	speed := cs.speed(t, p.spec)
	out.set("setup_s", median(setups)*granted)
	out.set("qps", cs.qps/speed)
	out.set("lat_p50_ms", p50*speed)
	out.set("cpu_ms_per_req", cs.cpuPerReqMs*speed)
	out.set("rss_peak_mb", hwm)
	out.notes = append(out.notes, fmt.Sprintf("as measured: qps %.1f 1/s, lat_p50_ms %.4f ms, cpu_ms_per_req %.4f ms; machine speed %.3f of reference (load generator %.4f ms CPU per request, reference %.4f)",
		cs.qps, p50, cs.cpuPerReqMs, speed, cs.ownPerReqMs, p.spec.seedOwnMs))
	// The tail is printed, not reported: on the VM the suite was sized on
	// its run-to-run spread is half its median, set by the hypervisor.
	if p99, err := pctl("lat_p99_ms", cs.latMs, 0.99); err == nil {
		out.notes = append(out.notes, fmt.Sprintf("lat_p99_ms %.4f ms over %d samples (informational; steal was %.0f %% of wanted CPU time)",
			p99, len(cs.latMs), cs.stealShare*100))
	}
	out.notes = append(out.notes, fmt.Sprintf("setup_s is the median of %d cold starts", len(setups)))
	return out, nil
}

// ladderShares are the open-loop steps, as shares of the workload's
// frozen seed qps.
var ladderShares = []struct {
	name  string
	share float64
}{{"r25", 0.25}, {"r50", 0.50}, {"r75", 0.75}}

// processLevel measures the hyperdomd/loadgen layer against a real child:
// memory at readiness, a short closed loop (for the transport share and
// the generator's own cost) and the open-loop ladder. handlerP50Us is the
// in-process handler median the transport share is taken against.
func processLevel(p *prepared, o runOpts, launch launcher, handlerP50Us float64, out *outcome, tl *tally) error {
	t, err := launch(p.in)
	if err != nil {
		return err
	}
	defer t.stop()
	rss, err := memMB(t.pid, "VmRSS")
	if err != nil {
		return err
	}
	out.set("hyperdomd.rss_ready_mb", rss)

	chk := newChecker(p.reqs)
	hc := newHTTPClient(openWorkers)
	defer hc.CloseIdleConnections()
	phase := time.Duration(o.seconds / 4 * float64(time.Second))
	cs, err := measureClosed(t, hc, chk, tl, o.warm, phase)
	if err != nil {
		return err
	}
	p50, err := pctl("loadgen.closed_p50_ms", cs.latMs, 0.50)
	if err != nil {
		return err
	}
	p90, err := pctl("loadgen.closed_p90_ms", cs.latMs, 0.90)
	if err != nil {
		return err
	}
	out.set("loadgen.closed_p50_ms", p50)
	out.set("loadgen.closed_p90_ms", p90)
	out.set("hyperdomd.transport_p50_us", p50*1e3-handlerP50Us)
	out.set("loadgen.cpu_share", cs.loadgenShare)
	out.set("loadgen.window_qps_spread", relSpread(cs.rates))
	out.set("loadgen.steal_share", cs.stealShare)

	// The ladder's tail is a p90: at a quarter of the slowest workload's
	// rate a step has under two hundred sends, which backs a p90 (≥10
	// beyond it) but no higher percentile.
	limitMs := 10 * p.spec.seedP50Ms
	conns := make([]*conn, openWorkers)
	for i := range conns {
		conns[i] = &conn{hc: hc, base: t.url}
	}
	var cursor atomic.Uint64
	maxOK := 0.0
	var late []float64
	for _, step := range ladderShares {
		rate := step.share * p.spec.seedQPS
		res := openLoop(func(w, _ int) bool {
			i := int((cursor.Add(1) - 1) % uint64(len(p.reqs)))
			status, body, err := conns[w].do(&p.reqs[i])
			ok := err == nil && chk.ok(i, status, body)
			tl.note(ok)
			return ok
		}, rate, phase, openWorkers)
		name := "loadgen.open_" + step.name + "_p90_ms"
		tail, err := pctl(name, res.latMs, 0.90)
		if err != nil {
			return err
		}
		out.set(name, tail)
		if stepOK(res, tail, limitMs, rate) {
			maxOK = rate
		}
		late = append(late, res.lateMs...)
	}
	out.set("loadgen.max_rate_ok", maxOK)
	lateTail, err := pctl("loadgen.late_p90_ms", late, 0.90)
	if err != nil {
		return err
	}
	out.set("loadgen.late_p90_ms", lateTail)
	return nil
}
