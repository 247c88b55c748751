// Command hyperdomd serves the sharded kNN index over HTTP (DESIGN.md §13):
// it loads one or more hypersphere collections, carves each into
// space-partitioned shards that every request walks nearest-first, and
// exposes the paper's Definition 2 kNN query plus single dominance checks
// as JSON endpoints, with the full obs stack (Prometheus /metrics, /debug
// handlers) mounted beside them.
//
//	hyperdomd -data corpus.csv -shards 4
//	curl -s localhost:8080/v1/collections/default/knn \
//	  -d '{"center":[57.1,49.9,50.7],"radius":0.5,"k":5}'
//
// With -oracle it instead answers one query in process over a plain
// single-index search and prints {"ids":[...]} — the ground truth the CI
// server-e2e job diffs the HTTP answer against.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hyperdom/internal/buildinfo"
	"hyperdom/internal/dataset"
	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/server"
	"hyperdom/internal/shard"
	"hyperdom/internal/sstree"
)

// What a built collection is made of. Every script, document and benchmark
// workload runs exactly this configuration, so it is not a flag: SS-tree
// shards at the default node capacity (shard.Options' zero values), walked
// best-first, coarse-filtered by the f32 tier (knn's default mode). A
// snapshot directory is served with whatever substrate its manifest names.
const algorithm = knn.HS

// Connection limits of the listener: a client gets readHeaderTimeout to
// send its request line and headers (a slowloris otherwise holds a
// goroutine and a descriptor for ever), and a keep-alive connection with no
// request on it is closed after idleTimeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

type config struct {
	addr        string
	data        string
	collections string
	n, d        int
	seed        int64
	shards      int

	snapshotDir    string
	snapshotVerify bool

	timelinePeriod time.Duration
	healthP99      time.Duration
	healthErrRate  float64

	oracle  bool
	k       int
	query   string
	qradius float64
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("hyperdomd", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.data, "data", "", `CSV corpus ("id,radius,c1,…,cd") for the "default" collection; empty generates a synthetic one`)
	fs.StringVar(&c.collections, "collections", "", "extra collections as name=path[,name=path...]")
	fs.IntVar(&c.n, "n", 2000, "synthetic corpus size (when -data is empty)")
	fs.IntVar(&c.d, "d", 4, "synthetic corpus dimensionality")
	fs.Int64Var(&c.seed, "seed", 1, "synthetic corpus seed")
	fs.IntVar(&c.shards, "shards", 2, "shards per collection")
	fs.StringVar(&c.snapshotDir, "snapshot-dir", "", "snapshot root: each collection loads zero-copy from DIR/<name> when present and compatible, else builds and saves there for the next start")
	fs.BoolVar(&c.snapshotVerify, "snapshot-verify", false, "checksum every snapshot section at load (trades the lazy mmap cold-start for eager corruption detection)")
	fs.DurationVar(&c.timelinePeriod, "timeline-period", obs.DefaultTimelinePeriod, "telemetry timeline tick (window rotation) period")
	fs.DurationVar(&c.healthP99, "health-p99", 250*time.Millisecond, "degraded when windowed request p99 exceeds this (0 disables)")
	fs.Float64Var(&c.healthErrRate, "health-error-rate", 0.05, "degraded when windowed 5xx fraction exceeds this (0 disables)")
	fs.BoolVar(&c.oracle, "oracle", false, "answer one query in process (single-index oracle) and exit")
	fs.IntVar(&c.k, "k", 5, "oracle: k")
	fs.StringVar(&c.query, "query", "", "oracle: query center as c1,c2,...")
	fs.Float64Var(&c.qradius, "qradius", 0, "oracle: query radius")
	return c, fs.Parse(args)
}

// parseCollections splits "name=path,name=path" into ordered pairs.
func parseCollections(s string) ([][2]string, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([][2]string, 0, len(parts))
	for _, p := range parts {
		name, path, ok := strings.Cut(p, "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("bad -collections entry %q (want name=path)", p)
		}
		out = append(out, [2]string{name, path})
	}
	return out, nil
}

// parseCenter parses a comma-separated query center.
func parseCenter(s string) ([]float64, error) {
	if s == "" {
		return nil, errors.New("empty -query")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -query coordinate %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func loadCorpus(path string) ([]geom.Item, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	items, err := dataset.LoadCSV(f)
	if err != nil {
		return nil, 0, err
	}
	if len(items) == 0 {
		return nil, 0, fmt.Errorf("%s: empty corpus", path)
	}
	return items, len(items[0].Sphere.Center), nil
}

// syntheticCorpus is the Gaussian workload of the bench fixtures: centers
// at 100±25 per coordinate, radii uniform in [0, 2).
func syntheticCorpus(n, d int, seed int64) []geom.Item {
	ps := dataset.SyntheticCenters(n, d, dataset.Gaussian, seed)
	return dataset.Spheres(ps, dataset.UniformRadii(0, 2), seed)
}

// runOracle answers one query over a plain single SS-tree search — the
// in-process ground truth of the CI server-e2e job — and prints the answer
// IDs as JSON.
func runOracle(c config, stdout *os.File) error {
	if c.data == "" {
		return errors.New("-oracle requires -data")
	}
	if c.k < 1 { // knn.Search panics on it; the server answers 400
		return fmt.Errorf("bad -k %d: must be at least 1", c.k)
	}
	items, dim, err := loadCorpus(c.data)
	if err != nil {
		return err
	}
	center, err := parseCenter(c.query)
	if err != nil {
		return err
	}
	if len(center) != dim {
		return fmt.Errorf("-query dim %d, corpus dim %d", len(center), dim)
	}
	// The check the server makes on a request body (400 there):
	// strconv.ParseFloat accepts NaN and Inf.
	q := geom.Sphere{Center: center, Radius: c.qradius}
	if err := q.Validate(); err != nil {
		return fmt.Errorf("bad -query/-qradius: %v", err)
	}
	t := sstree.New(dim)
	for _, it := range items {
		t.Insert(it)
	}
	res := knn.Search(knn.WrapSSTree(t), q, c.k, dominance.Hyperbola{}, algorithm)
	ids := make([]int, 0, len(res.Items))
	for _, it := range res.Items {
		ids = append(ids, it.ID)
	}
	return json.NewEncoder(stdout).Encode(map[string]any{"ids": ids})
}

func buildCollection(c config, items []geom.Item, dim int, label string) (*shard.Index, error) {
	return shard.Build(items, dim, shard.Options{
		Shards:    c.shards,
		Algorithm: algorithm,
		Label:     label,
	})
}

// mountCollection resolves one collection. With -snapshot-dir set it first
// tries DIR/<name>: a present, compatible snapshot directory mmaps straight
// into serving with no tree rebuild (the instant cold-start path). A
// missing directory falls back to building from the corpus; an unusable one
// (corrupt, version skew) is logged and rebuilt over. Whenever the
// collection had to be built, the fresh index is saved back so the next
// start takes the fast path. corpus is called only when a build is needed.
func mountCollection(c config, name string, corpus func() ([]geom.Item, int, error)) (*shard.Index, error) {
	if c.snapshotDir != "" {
		dir := filepath.Join(c.snapshotDir, name)
		start := time.Now()
		x, err := shard.OpenDir(dir, shard.OpenOptions{
			Algorithm: algorithm,
			Label:     name,
			Verify:    c.snapshotVerify,
		})
		if err == nil {
			log.Printf("collection %s: loaded snapshot %s in %v (%d items, dim %d, %d shards)",
				name, dir, time.Since(start).Round(time.Microsecond), x.Len(), x.Dim(), x.Shards())
			return x, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			log.Printf("collection %s: snapshot %s unusable, rebuilding: %v", name, dir, err)
		}
	}
	start := time.Now()
	items, dim, err := corpus()
	if err != nil {
		return nil, err
	}
	loaded := time.Now()
	x, err := buildCollection(c, items, dim, name)
	if err != nil {
		return nil, err
	}
	built := time.Now()
	log.Printf("collection %s: built from corpus in %v (load %v, build+freeze %v; %d items, dim %d, %d shards)",
		name, built.Sub(start).Round(time.Microsecond), loaded.Sub(start).Round(time.Microsecond),
		built.Sub(loaded).Round(time.Microsecond), x.Len(), x.Dim(), x.Shards())
	if c.snapshotDir != "" {
		dir := filepath.Join(c.snapshotDir, name)
		if err := x.SaveDir(dir); err != nil {
			log.Printf("collection %s: snapshot save to %s failed: %v", name, dir, err)
		} else {
			log.Printf("collection %s: snapshot saved to %s", name, dir)
		}
	}
	return x, nil
}

func run(c config) error {
	obs.SetEnabled(true)
	obs.SetGauge("build_info",
		fmt.Sprintf(`version=%q,go_version=%q,quant_mode=%q`,
			buildinfo.Version, runtime.Version(), knn.QuantModeNow()), 1)

	// Time-aware telemetry: the timeline ticker takes the cumulative
	// readings windows are differences of, samples the runtime and fills the
	// snapshot ring; the health thresholds turn the window into the
	// /debug/health verdict (and the degraded notes on /readyz).
	obs.SetHealthConfig(obs.HealthConfig{
		LatencyP99Max: c.healthP99,
		ErrorRateMax:  c.healthErrRate,
	})
	obs.StartTimeline(c.timelinePeriod)
	defer obs.StopTimeline()

	srv := server.New(server.WithLogger(slog.New(slog.NewJSONHandler(os.Stderr, nil))))
	defer srv.Close()

	// Listen before building: liveness (/healthz) answers immediately while
	// the corpora load and freeze, and /readyz stays 503 until every
	// collection is mounted — orchestrators gate traffic on readiness, not
	// on the process existing.
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("hyperdomd listening on %s (not ready)", ln.Addr())

	x, err := mountCollection(c, "default", func() ([]geom.Item, int, error) {
		if c.data != "" {
			return loadCorpus(c.data)
		}
		return syntheticCorpus(c.n, c.d, c.seed), c.d, nil
	})
	if err != nil {
		return err
	}
	if err := srv.AddCollection("default", x); err != nil {
		return err
	}
	log.Printf("collection default: %d items, dim %d, %d shards (%v)", x.Len(), x.Dim(), x.Shards(), x.ShardSizes())

	extra, err := parseCollections(c.collections)
	if err != nil {
		return err
	}
	for _, nc := range extra {
		path := nc[1]
		x, err := mountCollection(c, nc[0], func() ([]geom.Item, int, error) {
			return loadCorpus(path)
		})
		if err != nil {
			return err
		}
		if err := srv.AddCollection(nc[0], x); err != nil {
			return err
		}
		log.Printf("collection %s: %d items, dim %d, %d shards", nc[0], x.Len(), x.Dim(), x.Shards())
	}

	srv.SetReady(true)
	log.Printf("hyperdomd ready (version %s)", buildinfo.Version)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight requests finish, then
	// release the collections (srv.Close via defer, which waits for any
	// search still running when Shutdown timed out).
	log.Printf("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		return err
	}
	return nil
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if c.oracle {
		if err := runOracle(c, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "hyperdomd:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(c); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "hyperdomd:", err)
		os.Exit(1)
	}
}
