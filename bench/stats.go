package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer the tail estimate is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the p-quantile (nearest rank) of an ascending slice.
// It refuses — rather than quietly reporting a maximum — when fewer than
// minBeyond samples lie beyond the chosen rank, so a p99 needs ≥1,000
// samples and a p50 ≥20.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	// The epsilon keeps 0.99×1000 from rounding up to rank 991.
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

// pctl is percentile over an unsorted sample set, naming the metric in the
// refusal so a short run fails loudly instead of printing a maximum.
func pctl(name string, samples []float64, p float64) (float64, error) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	v, err := percentile(s, p)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return v, nil
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowRates buckets completion times (seconds since the window opened)
// into `windows` equal sub-windows of the total span and returns each
// sub-window's rate in events per second.
func windowRates(doneAt []float64, span float64, windows int) []float64 {
	counts := make([]float64, windows)
	width := span / float64(windows)
	for _, t := range doneAt {
		i := int(t / width)
		if i < 0 || i >= windows {
			continue
		}
		counts[i]++
	}
	for i := range counts {
		counts[i] /= width
	}
	return counts
}

// relSpread is (max − min) / median, the run-internal steadiness figure.
func relSpread(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	lo, hi := samples[0], samples[0]
	for _, v := range samples {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := median(samples)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// pairedDiff returns a[i] − b[i]: the per-request self time of an outer
// boundary once the inner boundary's time on the same request is removed.
func pairedDiff(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
