// Package experiments reproduces every figure of the paper's evaluation
// (Section 7): Figures 8–12 for the dominance operator and Figures 13–16
// for the kNN query. Each runner returns a structured result that the CLI
// tools render as text tables and the benchmark harness asserts shapes on.
//
// The paper's full workload (datasets of 100k+ spheres, 10,000 queries per
// point) is reachable with Scale = 1; the default used by tests and
// benchmarks shrinks cardinalities proportionally while keeping every sweep
// point, so the qualitative shapes — who wins, how precision and recall
// degrade — are preserved at a fraction of the runtime.
package experiments

import (
	"fmt"
	"time"

	"hyperdom/internal/dataset"
	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/stats"
	"hyperdom/internal/workload"
)

// Config controls experiment scale and determinism.
type Config struct {
	// Scale multiplies dataset sizes and query counts; 1 reproduces the
	// paper's cardinalities. Values ≤ 0 default to 0.05.
	Scale float64
	// Seed drives all random generation.
	Seed int64
	// MinTiming is the per-criterion timing budget for dominance
	// experiments; longer budgets tighten the per-op estimates. Defaults to
	// 20ms.
	MinTiming time.Duration
	// Shadow runs the kNN figures (13–17) under dominance.Shadowed
	// criteria: every dominance check of a search is also audited against
	// Hyperbola (Table 1 in vivo). Answers are unchanged; timings are not.
	Shadow bool
}

// criterion returns c as the kNN figures should search with it.
func (c Config) criterion(crit dominance.Criterion) dominance.Criterion {
	if c.Shadow {
		return dominance.Shadowed{Criterion: crit}
	}
	return crit
}

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MinTiming <= 0 {
		c.MinTiming = 20 * time.Millisecond
	}
	return c
}

// scaled returns base scaled down, with a floor to keep workloads
// meaningful.
func (c Config) scaled(base, floor int) int {
	n := int(float64(base) * c.Scale)
	if n < floor {
		n = floor
	}
	if n > base {
		n = base
	}
	return n
}

// Table 2 of the paper: parameter settings, defaults in bold.
var (
	RadiusSweep = []float64{5, 10, 50, 100}
	SizeSweep   = []int{20000, 60000, 100000, 140000, 180000}
	DimSweep    = []int{2, 4, 6, 8, 10}
	KSweep      = []int{1, 10, 20, 30}

	DefaultRadius = 50.0
	DefaultSize   = 100000
	DefaultDim    = 6
	DefaultK      = 10
)

// HighDimSweep is the Figure 11 dimensionality sweep.
var HighDimSweep = []int{25, 50, 75, 100}

// DomMetrics are the three measures of Figures 8–10 for one criterion.
type DomMetrics struct {
	NsPerOp   float64
	Precision float64 // 1 means no false positives on the workload
	Recall    float64 // 1 means no false negatives on the workload
}

// DomRow is one sweep point of a dominance experiment.
type DomRow struct {
	Label   string
	Metrics map[string]DomMetrics // keyed by criterion name
}

// DomResult is one dominance figure.
type DomResult struct {
	Figure  string
	Sweep   string
	Rows    []DomRow
	Queries int
}

// CriterionNames lists the five criteria in the paper's plotting order.
func CriterionNames() []string {
	names := make([]string, 0, 5)
	for _, c := range dominance.All() {
		names = append(names, c.Name())
	}
	return names
}

// runDominance measures all five criteria over one workload drawn from the
// items. Ground truth is the Hyperbola criterion, per Section 7.1.
func runDominance(items []geom.Item, queries int, seed int64, minTiming time.Duration) map[string]DomMetrics {
	w := workload.Dominance(items, queries, seed)
	truth := workload.Verdicts(dominance.Hyperbola{}, w)
	out := make(map[string]DomMetrics, 5)
	for _, crit := range dominance.All() {
		verdicts := workload.Verdicts(crit, w)
		acc := workload.Compare(verdicts, truth)
		per := workload.TimePerOp(crit, w, minTiming)
		out[crit.Name()] = DomMetrics{
			NsPerOp:   float64(per.Nanoseconds()),
			Precision: acc.Precision(),
			Recall:    acc.Recall(),
		}
	}
	return out
}

// Fig8 — effects of the average radius μ on the (simulated) NBA dataset:
// execution time, precision and recall for the five criteria.
func Fig8(cfg Config) DomResult {
	cfg = cfg.normalized()
	nba := dataset.NBA().Sample(cfg.scaled(17265, 500), cfg.Seed)
	queries := cfg.scaled(10000, 500)
	res := DomResult{Figure: "Figure 8 (NBA)", Sweep: "Ave. radius", Queries: queries}
	for _, mu := range RadiusSweep {
		items := dataset.Spheres(nba, dataset.GaussianRadii(mu), cfg.Seed+int64(mu))
		res.Rows = append(res.Rows, DomRow{
			Label:   fmt.Sprintf("%g", mu),
			Metrics: runDominance(items, queries, cfg.Seed, cfg.MinTiming),
		})
	}
	return res
}

// Fig9 — effects of the dimensionality d on synthetic data.
func Fig9(cfg Config) DomResult {
	cfg = cfg.normalized()
	n := cfg.scaled(DefaultSize, 1000)
	queries := cfg.scaled(10000, 500)
	res := DomResult{Figure: "Figure 9 (Synthetic)", Sweep: "Dimensionality", Queries: queries}
	for _, d := range DimSweep {
		ps := dataset.SyntheticCenters(n, d, dataset.Gaussian, cfg.Seed+int64(d))
		items := dataset.Spheres(ps, dataset.GaussianRadii(DefaultRadius), cfg.Seed+int64(d))
		res.Rows = append(res.Rows, DomRow{
			Label:   fmt.Sprintf("%d", d),
			Metrics: runDominance(items, queries, cfg.Seed, cfg.MinTiming),
		})
	}
	return res
}

// Fig10 — the four real datasets at the default radius.
func Fig10(cfg Config) DomResult {
	cfg = cfg.normalized()
	queries := cfg.scaled(10000, 500)
	res := DomResult{Figure: "Figure 10 (Real datasets)", Sweep: "Dataset", Queries: queries}
	for _, ps := range dataset.Real() {
		sample := ps.Sample(cfg.scaled(len(ps.Points), 500), cfg.Seed)
		items := dataset.Spheres(sample, dataset.GaussianRadii(DefaultRadius), cfg.Seed)
		res.Rows = append(res.Rows, DomRow{
			Label:   ps.Name,
			Metrics: runDominance(items, queries, cfg.Seed, cfg.MinTiming),
		})
	}
	return res
}

// Fig11 — execution time in high-dimensional space (d ∈ {25,50,75,100}).
func Fig11(cfg Config) DomResult {
	cfg = cfg.normalized()
	n := cfg.scaled(DefaultSize, 1000)
	queries := cfg.scaled(10000, 500)
	res := DomResult{Figure: "Figure 11 (High dimensionality)", Sweep: "Dimensionality", Queries: queries}
	for _, d := range HighDimSweep {
		ps := dataset.SyntheticCenters(n, d, dataset.Gaussian, cfg.Seed+int64(d))
		items := dataset.Spheres(ps, dataset.GaussianRadii(DefaultRadius), cfg.Seed+int64(d))
		res.Rows = append(res.Rows, DomRow{
			Label:   fmt.Sprintf("%d", d),
			Metrics: runDominance(items, queries, cfg.Seed, cfg.MinTiming),
		})
	}
	return res
}

// Fig12 — execution time under the four center/radius distribution
// combinations G-G, G-U, U-G, U-U.
func Fig12(cfg Config) DomResult {
	cfg = cfg.normalized()
	n := cfg.scaled(DefaultSize, 1000)
	queries := cfg.scaled(10000, 500)
	res := DomResult{Figure: "Figure 12 (Distributions)", Sweep: "Distribution", Queries: queries}
	combos := []struct {
		centers dataset.Distribution
		radii   dataset.RadiusSpec
	}{
		{dataset.Gaussian, dataset.GaussianRadii(DefaultRadius)},
		{dataset.Gaussian, dataset.UniformRadii(0, 200)},
		{dataset.Uniform, dataset.GaussianRadii(DefaultRadius)},
		{dataset.Uniform, dataset.UniformRadii(0, 200)},
	}
	labels := []string{"G-G", "G-U", "U-G", "U-U"}
	for i, combo := range combos {
		ps := dataset.SyntheticCenters(n, DefaultDim, combo.centers, cfg.Seed+int64(i))
		items := dataset.Spheres(ps, combo.radii, cfg.Seed+int64(i))
		res.Rows = append(res.Rows, DomRow{
			Label:   labels[i],
			Metrics: runDominance(items, queries, cfg.Seed, cfg.MinTiming),
		})
	}
	return res
}

// TimeTable renders the execution-time panel of a dominance figure.
func (r DomResult) TimeTable() stats.Table {
	return r.table("execution time (ns/op)", func(m DomMetrics) string {
		return fmt.Sprintf("%.0f", m.NsPerOp)
	})
}

// PrecisionTable renders the precision panel.
func (r DomResult) PrecisionTable() stats.Table {
	return r.table("precision (%)", func(m DomMetrics) string {
		return fmt.Sprintf("%.1f", m.Precision*100)
	})
}

// RecallTable renders the recall panel.
func (r DomResult) RecallTable() stats.Table {
	return r.table("recall (%)", func(m DomMetrics) string {
		return fmt.Sprintf("%.1f", m.Recall*100)
	})
}

func (r DomResult) table(metric string, format func(DomMetrics) string) stats.Table {
	t := stats.Table{
		Title:  fmt.Sprintf("%s — %s (%d queries/point)", r.Figure, metric, r.Queries),
		Header: append([]string{r.Sweep}, CriterionNames()...),
	}
	for _, row := range r.Rows {
		cells := []string{row.Label}
		for _, name := range CriterionNames() {
			cells = append(cells, format(row.Metrics[name]))
		}
		t.AddRow(cells...)
	}
	return t
}
