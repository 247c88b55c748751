// Command bench is the repository's benchmark (bench/README.md): it builds
// cmd/hyperdomd, drives it over HTTP under seeded workloads, checks every
// answer, and prints end-to-end and per-layer metrics by name.
//
//	go run ./bench -seed 1                      # every workload, untraced + traced
//	go run ./bench -seed 1 -workload scan_d10   # one workload, untraced (one JSON result line)
//	go run ./bench -seed 1 -workload scan_d10 -trace 1
//
// It claims no gain; it is the ruler later changes are measured with.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	verify   bool
	record   bool
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.workload, "workload", "", "run only this workload and end with one JSON result line (default: the whole suite)")
	fs.Int64Var(&c.seed, "seed", 1, "seed of the generated corpus and request list")
	fs.IntVar(&c.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&c.trace, "trace", 0, "with -workload: 0 = untraced end-to-end run, 1 = traced per-layer run")
	fs.BoolVar(&c.quick, "quick", false, "smoke run: corpus ÷ 20, 2-second windows, one set-up")
	fs.BoolVar(&c.verify, "verify", true, "check sampled answers against knn.BruteForce before load")
	fs.BoolVar(&c.record, "record", false, "suite mode: append the run to bench/history.jsonl and refresh bench/baseline.json")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.seconds < 1 {
		return c, fmt.Errorf("-seconds %d: want ≥ 1", c.seconds)
	}
	if c.trace != 0 && c.trace != 1 {
		return c, fmt.Errorf("-trace %d: want 0 or 1", c.trace)
	}
	if c.workload != "" {
		if _, ok := findWorkload(c.workload); !ok {
			return c, fmt.Errorf("unknown -workload %q", c.workload)
		}
	}
	return c, nil
}

func (c config) opts(outDir string) runOpts {
	o := runOpts{seconds: float64(c.seconds), warm: time.Second, setups: 5, verify: c.verify, outDir: outDir}
	if c.quick {
		o.seconds, o.warm, o.setups = 2, 500*time.Millisecond, 1
	}
	return o
}

// resultLine is the one-line contract the driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value *float64 `json:"value"` // null when not measurable on this machine
	Unit  string   `json:"unit"`
}

func toResultLine(o *outcome, defs []metricDef) (resultLine, error) {
	rl := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return rl, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsInf(v, 0) {
			return rl, fmt.Errorf("metric %s is infinite", d.name)
		}
		rl.Metrics[d.name] = metricValue{Value: nullable(v), Unit: d.unit}
	}
	if len(o.metrics) != len(defs) {
		return rl, fmt.Errorf("%d metrics measured, %d defined", len(o.metrics), len(defs))
	}
	return rl, nil
}

// nullable maps NaN — "not measurable on this machine" — to JSON null.
func nullable(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

func printMetrics(o *outcome, defs []metricDef) {
	for _, d := range defs {
		v := o.metrics[d.name]
		if math.IsNaN(v) {
			fmt.Printf("  %-44s %14s %-8s\n", d.name, "null", d.unit)
			continue
		}
		fmt.Printf("  %-44s %14.4f %-8s\n", d.name, v, d.unit)
	}
	for _, note := range o.notes {
		fmt.Printf("  note: %s\n", note)
	}
	fmt.Printf("  operations attempted %d, failed %d\n", o.attempted, o.failed)
}

// runOne executes one workload in one mode and prints its metrics.
func runOne(s spec, c config, o runOpts, launch launcher) (*outcome, []metricDef, error) {
	if c.quick {
		s = s.quick()
	}
	p, err := prepare(s, c.seed, o.outDir)
	if err != nil {
		return nil, nil, err
	}
	defer p.cleanup()
	var out *outcome
	defs := endToEndDefs
	if c.trace == 1 {
		defs = perLayerDefs
		out, err = traced(p, o, launch)
	} else {
		out, err = endToEnd(p, o, launch)
	}
	if err != nil {
		return out, defs, fmt.Errorf("%s: %w", s.name, err)
	}
	mode := "untraced, end to end"
	if c.trace == 1 {
		mode = "traced, per layer"
	}
	fmt.Printf("%s (%s; n=%d d=%d shards=%d; closed loop of %d connections, %gs window)\n",
		s.name, mode, s.n, s.d, s.shards, closedConns, o.seconds)
	printMetrics(out, defs)
	return out, defs, nil
}

func gitSHA() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func run(c config) error {
	outDir := filepath.Join("bench", "out")
	o := c.opts(outDir)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	bin, err := buildServer(outDir)
	if err != nil {
		return err
	}
	launch := childLauncher(bin)
	stopKeepAwake, err := startKeepAwake()
	if err != nil {
		return err
	}
	defer stopKeepAwake()
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Git: gitSHA(), Seed: c.seed, Seconds: o.seconds}
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s git=%s seed=%d\n", env.NProc, env.GOMAXPROCS, env.Go, env.Git, env.Seed)

	if c.workload != "" {
		s, _ := findWorkload(c.workload)
		out, defs, err := runOne(s, c, o, launch)
		if err != nil {
			return err
		}
		rl, err := toResultLine(out, defs)
		if err != nil {
			return err
		}
		line, err := json.Marshal(rl)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if out.failed != 0 {
			return fmt.Errorf("%s: %d of %d operations failed", s.name, out.failed, out.attempted)
		}
		return nil
	}

	// Suite mode: every workload, untraced then traced.
	rec := historyLine{Env: env, When: time.Now().UTC().Format(time.RFC3339), Workloads: map[string]map[string]*float64{}}
	var failed int64
	for _, s := range workloads {
		rec.Workloads[s.name] = map[string]*float64{}
		for _, trace := range []int{0, 1} {
			c.trace = trace
			out, _, err := runOne(s, c, o, launch)
			if err != nil {
				return err
			}
			failed += out.failed
			for name, v := range out.metrics {
				rec.Workloads[s.name][name] = nullable(v)
			}
		}
	}
	if failed != 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if c.record {
		return record(filepath.Join("bench", "history.jsonl"), filepath.Join("bench", "baseline.json"), rec)
	}
	return nil
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == keepAwakeArg {
		keepAwake()
	}
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	// A signal reaps children and scratch directories before exiting; a
	// panic on this goroutine does the same through the deferred call.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		reap.killAll()
		os.Exit(130)
	}()
	defer reap.killAll()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		reap.killAll()
		os.Exit(1)
	}
}
