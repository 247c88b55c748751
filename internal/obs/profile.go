package obs

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// StartCPUProfile starts a CPU profile into path and returns the function
// that stops it and closes the file.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile runs a GC (so the profile reflects live objects, not
// garbage) and writes the heap profile to path.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Serve starts an HTTP server on addr exposing the full observability mux
// of Handler: /metrics (Prometheus text), the /debug views of the Slow ring
// and /debug/pprof. It returns the bound address — pass "localhost:0" for an
// ephemeral port. The server runs until the process exits.
func Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, Handler()) //nolint:errcheck — runs for the process lifetime
	return ln.Addr().String(), nil
}

// ProfileFlags is the shared -serve/-pprof/-cpuprofile/-memprofile/-metrics
// flag set of the benchmark commands.
type ProfileFlags struct {
	CPUProfile     string
	MemProfile     string
	PprofAddr      string
	ServeAddr      string
	Metrics        bool
	TimelinePeriod time.Duration

	boundServe string // the address -serve actually bound (ephemeral ports)
}

// RegisterFlags installs the profiling flags on fs and returns the
// destination struct. Call Start after fs.Parse.
func RegisterFlags(fs *flag.FlagSet) *ProfileFlags {
	pf := &ProfileFlags{}
	fs.StringVar(&pf.CPUProfile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&pf.MemProfile, "memprofile", "", "write a heap profile to `file` on exit")
	fs.StringVar(&pf.PprofAddr, "pprof", "", "serve /debug/pprof (and the rest of the obs mux) on `addr` (e.g. localhost:6060)")
	fs.StringVar(&pf.ServeAddr, "serve", "",
		"serve /metrics, /debug/slow and /debug/pprof on `addr`; keeps serving after the run until interrupted")
	fs.BoolVar(&pf.Metrics, "metrics", false,
		"print the obs counter snapshot on exit; in the figure runners this also re-enables counters for each figure and prints a per-figure diff")
	fs.DurationVar(&pf.TimelinePeriod, "timeline-period", DefaultTimelinePeriod,
		"with -serve, telemetry timeline tick (window rotation) period")
	return pf
}

// Wanted reports whether any observability output was requested — commands
// that disable counters by default for timing fidelity re-enable them when
// it returns true.
func (pf *ProfileFlags) Wanted() bool {
	return pf.Metrics || pf.PprofAddr != "" || pf.ServeAddr != "" || pf.CPUProfile != "" ||
		pf.MemProfile != ""
}

// Figure runs figure n of a figure runner. With -metrics it (re-)enables
// the counter gate first — whatever an earlier figure or timing loop left it
// at — and afterwards prints the counters the figure moved to stderr, so the
// figure tables on stdout stay machine-readable. Without -metrics it only
// calls run.
func (pf *ProfileFlags) Figure(n int, run func()) {
	if !pf.Metrics {
		run()
		return
	}
	SetEnabled(true)
	before := Snapshot()
	run()
	fmt.Fprintf(os.Stderr, "-- fig %d counters --\n", n)
	Snapshot().Diff(before).Fprint(os.Stderr)
}

// Start begins whatever profiling the flags request and returns the
// function to run at exit (stop the CPU profile, dump the heap profile,
// print the metrics snapshot). The returned stop is never nil. When -serve
// was given, stop keeps the process alive serving the observability mux
// until SIGINT/SIGTERM, so `cmd -serve addr` stays inspectable after its
// run finishes.
func (pf *ProfileFlags) Start() (stop func(), err error) {
	var stopCPU func() error
	if pf.CPUProfile != "" {
		stopCPU, err = StartCPUProfile(pf.CPUProfile)
		if err != nil {
			return nil, err
		}
	}
	if pf.PprofAddr != "" {
		addr, err := Serve(pf.PprofAddr)
		if err != nil {
			if stopCPU != nil {
				stopCPU() //nolint:errcheck
			}
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "obs: serving pprof on http://%s/debug/pprof/\n", addr)
	}
	if pf.ServeAddr != "" {
		addr, err := Serve(pf.ServeAddr)
		if err != nil {
			if stopCPU != nil {
				stopCPU() //nolint:errcheck
			}
			return nil, err
		}
		pf.boundServe = addr
		// A served bench process is a live server: run the timeline ticker so
		// /debug/timeline, the _1m windowed families and /debug/health have
		// data while the operator pokes at it.
		StartTimeline(pf.TimelinePeriod)
		fmt.Fprintf(os.Stderr, "obs: serving metrics on http://%s/metrics\n", addr)
	}
	return func() {
		if stopCPU != nil {
			if err := stopCPU(); err != nil {
				fmt.Fprintf(os.Stderr, "obs: cpu profile: %v\n", err)
			}
		}
		if pf.MemProfile != "" {
			if err := WriteHeapProfile(pf.MemProfile); err != nil {
				fmt.Fprintf(os.Stderr, "obs: heap profile: %v\n", err)
			}
		}
		if pf.Metrics {
			Snapshot().Fprint(os.Stderr)
		}
		if pf.boundServe != "" {
			fmt.Fprintf(os.Stderr, "obs: still serving on http://%s/metrics — Ctrl-C to exit\n", pf.boundServe)
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
			<-ch
		}
	}, nil
}
