package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Error("Mean broken")
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Error("StdDev of singleton != 0")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	xs := []float64{1.5, -2, 7, 7, 3.25, 0}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Errorf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-Mean(xs)) > 1e-12 {
		t.Errorf("Welford mean %v vs batch %v", w.Mean(), Mean(xs))
	}
	if math.Abs(w.StdDev()-StdDev(xs)) > 1e-12 {
		t.Errorf("Welford stddev %v vs batch %v", w.StdDev(), StdDev(xs))
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{Title: "demo", Header: []string{"name", "value"}}
	tab.AddRow("alpha", "1")
	tab.AddRow("a-much-longer-name", "22")
	out := tab.Render()
	if !strings.Contains(out, "demo") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns must align: "value" cells start at the same offset.
	h := strings.Index(lines[1], "value")
	r1 := strings.Index(lines[3], "1")
	if h != r1 {
		t.Errorf("misaligned columns:\n%s", out)
	}
}
