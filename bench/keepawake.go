package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
)

// keepAwakeArg re-executes the harness binary as the keep-awake process.
const keepAwakeArg = "-keep-awake-process"

// startKeepAwake spawns one SCHED_IDLE spinning thread per CPU, in a
// process of its own so its CPU time is not the load generator's, and
// returns the function that stops it.
//
// The box the suite was sized on is a VM. When a vCPU has nothing to run
// it halts, and waking it again is up to the host's scheduler: that took
// between microseconds and milliseconds from one minute to the next, was
// booked as "steal", and — because a request here is a chain of short
// hand-offs between threads on two vCPUs — moved qps by 4× and the median
// latency by 2× between runs of the same commit. A thread that spins in
// the SCHED_IDLE class keeps the vCPU from halting (what booting with
// idle=poll does) and is preempted by real work at once; in ten runs it took
// run-to-run IQR/median of lat_p50_ms from 27 % to 4 %. It uses only
// otherwise idle cycles and runs identically for every commit measured.
func startKeepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, keepAwakeArg)
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start keep-awake process: %w", err)
	}
	reap.addProc(cmd)
	waited := make(chan struct{})
	go func() {
		_ = cmd.Wait() // it only ever exits by our signal
		close(waited)
	}()
	return func() { reap.stopProc(cmd, waited) }, nil
}

// keepAwake is the body of the keep-awake process: it never returns, and
// is ended by the harness's signal or by PDEATHSIG.
func keepAwake() {
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			if err := lowestPriority(); err != nil {
				fmt.Fprintln(os.Stderr, "bench: keep-awake:", err)
				os.Exit(1)
			}
			for {
			}
		}()
	}
	select {}
}
