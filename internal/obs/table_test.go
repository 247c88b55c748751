package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestOneTypeLinePerFamily locks the registry fold: every kind of metric
// lives in the same keyed table, and a family — flat or labeled, counter,
// gauge or histogram — is written under exactly one # TYPE line. The names
// are chosen so that raw key order would split each labeled family around a
// longer unrelated name: '_' sorts before '{' and '|', so "x_total" falls
// between "x" and "x|pairs" (and between "x" and "x{pairs}").
func TestOneTypeLinePerFamily(t *testing.T) {
	GetOrNew("test.fold.req").Inc()
	GetOrNew("test.fold.req_total").Inc()
	GetOrNewLabeled("test.fold.req", `code="200"`).Inc()
	GetOrNewLabeled("test.fold.req", `code="500"`).Inc()
	SetGauge("test.fold.depth", `q="a"`, 1)
	SetGauge("test.fold.depth_max", "", 2)
	defer RegisterGaugeFunc("test.fold.depth", `q="b"`, func() float64 { return 3 })()
	GetOrNewHistogram("test.fold.lat", `path="a"`).Record(10)
	GetOrNewHistogram("test.fold.lat_slow", "").Record(10)
	GetOrNewHistogram("test.fold.lat", `path="b"`).Record(10)

	var buf bytes.Buffer
	if err := WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]+" "+f[3]]++
		}
	}
	for family, n := range types {
		if n != 1 {
			t.Errorf("# TYPE %s written %d times", family, n)
		}
	}
	for _, want := range []string{
		"hyperdom_test_fold_req counter", "hyperdom_test_fold_req_total counter",
		"hyperdom_test_fold_depth gauge", "hyperdom_test_fold_depth_max gauge",
		"hyperdom_test_fold_lat_seconds histogram", "hyperdom_test_fold_lat_slow_seconds histogram",
	} {
		if types[want] != 1 {
			t.Errorf("no # TYPE %s line", want)
		}
	}
	for _, want := range []string{
		`hyperdom_test_fold_req{code="500"} 1`,
		`hyperdom_test_fold_depth{q="b"} 3`,
		`hyperdom_test_fold_lat_seconds_count{path="b"} 1`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("missing sample line %s", want)
		}
	}
}
