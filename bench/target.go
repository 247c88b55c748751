package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds how long a spawned hyperdomd may take to turn
// /readyz 200 before the harness reaps it and fails the run.
const readyTimeout = 60 * time.Second

// readyPoll is the readiness poll interval: a snapshot cold start is ready
// in ~7 ms, so a coarser poll would be a visible share of setup_s.
const readyPoll = 250 * time.Microsecond

// target is a server under test: where to send requests and which
// process's /proc entries account for its CPU and memory.
type target struct {
	url    string
	pid    int
	setupS float64 // start → first /readyz 200
	// external is false when the server shares the harness's process (the
	// in-process smoke test), where the load generator's own CPU cannot be
	// told apart from the server's.
	external bool
	stop     func()
}

// launcher starts a server over the prepared inputs.
type launcher func(in serverInputs) (*target, error)

// serverInputs is everything the server receives: a CSV corpus or a
// snapshot root, and the shard count.
type serverInputs struct {
	csvPath     string // -data
	snapshotDir string // -snapshot-dir (holds default/)
	shards      int
}

// reaper tracks every live child and temp directory so they are released
// on every exit path: normal return, failed readiness, signal, panic.
type reaper struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]struct{}
	dirs  map[string]struct{}
}

var reap = &reaper{procs: map[*exec.Cmd]struct{}{}, dirs: map[string]struct{}{}}

func (r *reaper) addProc(c *exec.Cmd) {
	r.mu.Lock()
	r.procs[c] = struct{}{}
	r.mu.Unlock()
}

func (r *reaper) addDir(d string) {
	r.mu.Lock()
	r.dirs[d] = struct{}{}
	r.mu.Unlock()
}

// stopProc asks the child to drain (SIGTERM), escalates to SIGKILL after
// five seconds, and returns once it has been waited for.
func (r *reaper) stopProc(c *exec.Cmd, waited <-chan struct{}) {
	r.mu.Lock()
	_, live := r.procs[c]
	delete(r.procs, c)
	r.mu.Unlock()
	if !live {
		return
	}
	_ = c.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		_ = c.Process.Kill()
		<-waited
	}
}

func (r *reaper) removeDir(d string) {
	r.mu.Lock()
	delete(r.dirs, d)
	r.mu.Unlock()
	_ = os.RemoveAll(d) // best effort: scratch under bench/out
}

// killAll is the abnormal-exit path (signal, panic): no draining.
func (r *reaper) killAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for c := range r.procs {
		_ = c.Process.Kill()
		_, _ = c.Process.Wait()
	}
	for d := range r.dirs {
		_ = os.RemoveAll(d)
	}
	r.procs, r.dirs = map[*exec.Cmd]struct{}{}, map[string]struct{}{}
}

// buildServer compiles cmd/hyperdomd from the checkout the harness runs
// in and returns the binary's path.
func buildServer(outDir string) (string, error) {
	bin := filepath.Join(outDir, "hyperdomd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hyperdomd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/hyperdomd: %w", err)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// childLauncher returns the launcher that spawns the real binary: default
// flags except the inputs, shard count and listen address, stderr (the
// JSON access log) to /dev/null.
func childLauncher(bin string) launcher {
	return func(in serverInputs) (*target, error) {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		args := []string{"-addr", addr, "-shards", strconv.Itoa(in.shards)}
		if in.snapshotDir != "" {
			args = append(args, "-snapshot-dir", in.snapshotDir)
		} else {
			args = append(args, "-data", in.csvPath)
		}
		cmd := exec.Command(bin, args...)
		cmd.SysProcAttr = childAttr()
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start hyperdomd: %w", err)
		}
		reap.addProc(cmd)
		waited := make(chan struct{})
		go func() {
			_ = cmd.Wait() // exit status is judged by readiness and responses
			close(waited)
		}()
		stop := func() { reap.stopProc(cmd, waited) }

		setup, err := awaitReady("http://"+addr+"/readyz", start, waited)
		if err != nil {
			stop()
			return nil, err
		}
		return &target{url: "http://" + addr, pid: cmd.Process.Pid, setupS: setup, external: true, stop: stop}, nil
	}
}

// awaitReady polls /readyz every readyPoll until it answers 200, the child
// exits, or readyTimeout passes; it returns seconds since start.
func awaitReady(url string, start time.Time, exited <-chan struct{}) (float64, error) {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for time.Since(start) < readyTimeout {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-exited:
			return 0, errors.New("hyperdomd exited before becoming ready")
		case <-time.After(readyPoll):
		}
	}
	return 0, fmt.Errorf("hyperdomd not ready within %v", readyTimeout)
}
