package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"hyperdom/internal/dataset"
	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
)

// unmovable are the counter and histogram families a healthy hyperdomd
// cannot move, each with the reason it is still registered. Every other
// family of its /metrics must move on TestEveryFamilyMoves' boots.
var unmovable = map[string]string{
	"hyperdom_snapshot_checksum_failures": "counts corrupt snapshot sections; a healthy snapshot has none",
}

// boot runs hyperdomd with c in process on a fresh localhost port, calls
// drive with its base URL once /readyz answers 200, and then shuts it down
// as SIGTERM would.
func boot(t *testing.T, c config, drive func(base string)) {
	t.Helper()
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, c, ln) }()
	exited := false
	defer func() { // on a failure below: stop the server before returning
		if !exited {
			cancel()
			<-done
		}
	}()
	base := "http://" + ln.Addr().String()
	for deadline := time.Now().Add(time.Minute); ; {
		if resp, err := http.Get(base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-done:
			exited = true
			cancel()
			t.Fatalf("hyperdomd exited before it was ready: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("hyperdomd not ready after a minute")
		}
	}
	drive(base)
	cancel()
	exited = true
	if err := <-done; err != nil {
		t.Fatalf("hyperdomd shutdown: %v", err)
	}
}

// post sends body to base+path and returns the status.
func post(t *testing.T, base, path, body string) int {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// unmoved parses a /metrics exposition and returns, in order, every counter
// and histogram family none of whose series has moved: no counter sample
// above 0, no histogram _count above 0.
func unmoved(t *testing.T, text []byte) []string {
	t.Helper()
	kind := map[string]string{}
	var families []string
	moved := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if f[3] == "counter" || f[3] == "histogram" {
				kind[f[2]] = f[3]
				families = append(families, f[2])
			}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if family, ok := strings.CutSuffix(name, "_count"); ok && kind[family] == "histogram" {
			name = family
		} else if kind[name] != "counter" {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		moved[name] = moved[name] || v > 0
	}
	var out []string
	for _, f := range families {
		if !moved[f] {
			out = append(out, f)
		}
	}
	return out
}

// TestEveryFamilyMoves locks the registry hyperdomd serves to what it can
// move. The corpus is two Gaussian clouds 1000 apart, one per shard. A
// build boot writes the shards into a snapshot directory; a snapshot boot
// maps them back and takes a request mix: kNN queries at corpus points
// (k = 1, so the other cloud's shard is skipped) and with wide radii (the
// final filter then settles checks by every certificate), one with
// ?explain=true, a /dominates that reaches the quartic, the inventory, and
// requests answered 400 and 404. Afterwards every counter and histogram
// family on /metrics must have moved, except the declared unmovable ones.
func TestEveryFamilyMoves(t *testing.T) {
	prev := obs.On()
	defer obs.SetEnabled(prev)
	obs.ResetForTest()

	corpus := syntheticCorpus(2000, 4, 1)
	for _, it := range syntheticCorpus(2000, 4, 2) {
		c := make([]float64, len(it.Sphere.Center))
		for j, x := range it.Sphere.Center {
			c[j] = x + 1000
		}
		corpus = append(corpus, geom.Item{ID: it.ID + 2000, Sphere: geom.NewSphere(c, it.Sphere.Radius)})
	}
	dir := t.TempDir()
	csv := filepath.Join(dir, "corpus.csv")
	f, err := os.Create(csv)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, corpus); err != nil {
		t.Fatal(err)
	}
	f.Close()
	c := config{data: csv, shards: 2, snapshotDir: filepath.Join(dir, "snapshots"),
		healthP99: 250 * time.Millisecond, healthErrRate: 0.05}
	boot(t, c, func(string) {})

	rng := rand.New(rand.NewSource(3))
	var text []byte
	boot(t, c, func(base string) {
		knn := "/v1/collections/default/knn"
		for i := 0; i < 40; i++ {
			it := corpus[rng.Intn(len(corpus))].Sphere
			k, r := 1, 0.0
			if i%2 == 1 {
				k, r = 10, 5+10*rng.Float64()
			}
			body := fmt.Sprintf(`{"center":%s,"radius":%g,"k":%d}`, jsonFloats(it.Center), r, k)
			if code := post(t, base, knn, body); code != http.StatusOK {
				t.Fatalf("knn %s: status %d", body, code)
			}
		}
		if code := post(t, base, knn+"?explain=true", `{"center":[100,100,100,100],"radius":1,"k":5}`); code != http.StatusOK {
			t.Fatalf("explain: status %d", code)
		}
		// Sa, Sb and Sq as in benchkernel's TestQuarticShare: cq inside Ra
		// with Sq neither a point nor settled by the closed forms.
		dom := `{"a":{"center":[0,0,0,0],"radius":1},"b":{"center":[20,0,0,0],"radius":1},` +
			`"q":{"center":[-5,0.25,0,0],"radius":3}}`
		if code := post(t, base, "/v1/collections/default/dominates", dom); code != http.StatusOK {
			t.Fatalf("dominates: status %d", code)
		}
		if code := post(t, base, knn, `{"k":`); code != http.StatusBadRequest {
			t.Fatalf("truncated body: status %d, want 400", code)
		}
		if code := post(t, base, "/v1/collections/nope/knn", `{"center":[0,0,0,0],"k":1}`); code != http.StatusNotFound {
			t.Fatalf("unknown collection: status %d, want 404", code)
		}
		for _, path := range []string{"/v1/collections", "/metrics"} {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			text, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
			}
		}
	})

	var bad []string
	for _, f := range unmoved(t, text) {
		if _, ok := unmovable[f]; !ok {
			bad = append(bad, f)
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d families on /metrics never moved: %s", len(bad), strings.Join(bad, ", "))
	}
	for f := range unmovable {
		if !bytes.Contains(text, []byte("# TYPE "+f+" ")) {
			t.Errorf("unmovable family %s is not on /metrics: drop it from the list", f)
		}
	}
}

// jsonFloats renders v as a JSON array.
func jsonFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return "[" + strings.Join(parts, ",") + "]"
}
