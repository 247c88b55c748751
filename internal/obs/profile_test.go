package obs

import (
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestFigure pins the figure runners' metrics hook: without -metrics it
// runs the figure once and writes nothing; with it, a disabled counter gate
// is re-enabled for the figure and the counters it moved go to stderr.
func TestFigure(t *testing.T) {
	defer SetEnabled(On())
	c := GetOrNew("obs_test.figure_moves")
	run := func(pf *ProfileFlags) (runs int, stderr string) {
		SetEnabled(false)
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		saved := os.Stderr
		os.Stderr = w
		pf.Figure(7, func() {
			runs++
			if On() {
				c.Add(3)
			}
		})
		os.Stderr = saved
		w.Close()
		out, _ := io.ReadAll(r)
		return runs, string(out)
	}

	if runs, out := run(&ProfileFlags{}); runs != 1 || out != "" {
		t.Errorf("without -metrics: %d runs, stderr %q; want 1 run, no output", runs, out)
	}
	if On() {
		t.Error("without -metrics the hook enabled the counter gate")
	}

	runs, out := run(&ProfileFlags{Metrics: true})
	if runs != 1 {
		t.Errorf("with -metrics: %d runs, want 1", runs)
	}
	if !On() {
		t.Error("with -metrics the counter gate stayed disabled")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "-- fig 7 counters --" {
		t.Errorf("first stderr line %q, want the figure header:\n%s", lines[0], out)
	}
	if !slices.ContainsFunc(lines[1:], func(l string) bool {
		return slices.Equal(strings.Fields(l), []string{"obs_test.figure_moves", "3"})
	}) {
		t.Errorf("stderr lacks the figure's counter diff (obs_test.figure_moves 3):\n%s", out)
	}
}
