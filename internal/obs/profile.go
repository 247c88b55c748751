package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
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

// ProfileFlags is the shared -cpuprofile/-memprofile/-metrics flag set of
// the benchmark commands.
type ProfileFlags struct {
	CPUProfile string
	MemProfile string
	Metrics    bool
}

// RegisterFlags installs the profiling flags on fs and returns the
// destination struct. Call Start after fs.Parse.
func RegisterFlags(fs *flag.FlagSet) *ProfileFlags {
	pf := &ProfileFlags{}
	fs.StringVar(&pf.CPUProfile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&pf.MemProfile, "memprofile", "", "write a heap profile to `file` on exit")
	fs.BoolVar(&pf.Metrics, "metrics", false,
		"print the obs counter snapshot on exit; in the figure runners this also re-enables counters for each figure and prints a per-figure diff")
	return pf
}

// Wanted reports whether any observability output was requested — commands
// that disable counters by default for timing fidelity re-enable them when
// it returns true.
func (pf *ProfileFlags) Wanted() bool {
	return pf.Metrics || pf.CPUProfile != "" || pf.MemProfile != ""
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
// print the metrics snapshot). The returned stop is never nil.
func (pf *ProfileFlags) Start() (stop func(), err error) {
	var stopCPU func() error
	if pf.CPUProfile != "" {
		stopCPU, err = StartCPUProfile(pf.CPUProfile)
		if err != nil {
			return nil, err
		}
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
	}, nil
}
