package obs

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestCounterPadding(t *testing.T) {
	if got := unsafe.Sizeof(Counter{}); got != cacheLine {
		t.Errorf("Counter occupies %d bytes, want one %d-byte cache line", got, cacheLine)
	}
}

func TestRegistry(t *testing.T) {
	c := New("test.registry.first")
	if Lookup("test.registry.first") != c {
		t.Error("Lookup did not return the registered counter")
	}
	if Lookup("test.registry.absent") != nil {
		t.Error("Lookup invented a counter")
	}
	if GetOrNew("test.registry.first") != c {
		t.Error("GetOrNew did not reuse the registered counter")
	}
	d := GetOrNew("test.registry.dynamic")
	if GetOrNew("test.registry.dynamic") != d {
		t.Error("GetOrNew created the same name twice")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate New did not panic")
			}
		}()
		New("test.registry.first")
	}()

	found := 0
	for name := range Snapshot() {
		if strings.HasPrefix(name, "test.registry.") {
			found++
		}
	}
	if found != 2 {
		t.Errorf("Snapshot listed %d test.registry counters, want 2", found)
	}
}

func TestSnapshotDiff(t *testing.T) {
	a := New("test.snap.a")
	b := New("test.snap.b")
	before := Snapshot()
	a.Add(7)
	b.Inc()
	b.Inc()
	diff := Snapshot().Diff(before)
	if diff.Get("test.snap.a") != 7 || diff.Get("test.snap.b") != 2 {
		t.Errorf("diff = a:%d b:%d, want a:7 b:2", diff.Get("test.snap.a"), diff.Get("test.snap.b"))
	}
	for name, v := range diff {
		if v == 0 {
			t.Errorf("diff kept unmoved counter %q", name)
		}
	}
	if diff.Get("test.snap.absent") != 0 {
		t.Error("Get of an absent name is not 0")
	}
}

func TestEnabledGate(t *testing.T) {
	if !On() {
		t.Fatal("instrumentation must default to enabled")
	}
	SetEnabled(false)
	if On() {
		t.Error("On() after SetEnabled(false)")
	}
	SetEnabled(true)
	if !On() {
		t.Error("!On() after SetEnabled(true)")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := New("test.concurrent")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Errorf("concurrent Inc lost updates: %d, want %d", got, workers*per)
	}
}

func TestCounterAddAllocs(t *testing.T) {
	c := New("test.allocs")
	if allocs := testing.AllocsPerRun(100, func() { c.Add(3) }); allocs != 0 {
		t.Errorf("Counter.Add allocates %.1f times per call, want 0", allocs)
	}
}

func TestFprintSorted(t *testing.T) {
	s := Snap{"z.last": 1, "a.first": 2}
	var buf bytes.Buffer
	s.Fprint(&buf)
	out := buf.String()
	if strings.Index(out, "a.first") > strings.Index(out, "z.last") {
		t.Errorf("Fprint not sorted:\n%s", out)
	}
}

func TestProfileFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatalf("StartCPUProfile: %v", err)
	}
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&bytes.Buffer{}, "%d", i)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile missing or empty: %v", err)
	}

	heap := filepath.Join(dir, "heap.out")
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatalf("WriteHeapProfile: %v", err)
	}
	if fi, err := os.Stat(heap); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile missing or empty: %v", err)
	}
}

func TestServeExportsMetrics(t *testing.T) {
	addr, err := Serve("localhost:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	New("test.serve.visible").Add(41)
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body) //nolint:errcheck
	if !strings.Contains(body.String(), "hyperdom_test_serve_visible 41\n") {
		t.Error("served /metrics does not include the counter")
	}
}

func TestRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	pf := RegisterFlags(fs)
	if pf.Wanted() {
		t.Error("zero ProfileFlags reports Wanted")
	}
	if err := fs.Parse([]string{"-metrics", "-cpuprofile", "c.out"}); err != nil {
		t.Fatal(err)
	}
	if !pf.Metrics || pf.CPUProfile != "c.out" || !pf.Wanted() {
		t.Errorf("flags not bound: %+v", pf)
	}
}
