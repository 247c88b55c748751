// Package workload builds the measurement workloads of Section 7: batches
// of random dominance queries over a dataset, together with the precision/
// recall and timing machinery the paper's figures report.
//
// Following the paper, each dominance workload contains random triples
// (Sa, Sb, Sq) drawn from the dataset, the results of the Hyperbola
// criterion serve as ground truth (it is the only correct and sound
// method), precision is TP/(TP+FP) and recall is TP/(TP+FN).
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
)

// Triple is one dominance query instance.
type Triple struct {
	A, B, Q geom.Sphere
}

// Dominance draws n random query triples from the items, matching the
// paper's "10,000 random queries each involving three hyperspheres selected
// from the dataset randomly".
func Dominance(items []geom.Item, n int, seed int64) []Triple {
	if len(items) == 0 {
		panic("workload: Dominance over empty dataset")
	}
	rng := rand.New(rand.NewSource(seed))
	w := make([]Triple, n)
	for i := range w {
		w[i] = Triple{
			A: items[rng.Intn(len(items))].Sphere,
			B: items[rng.Intn(len(items))].Sphere,
			Q: items[rng.Intn(len(items))].Sphere,
		}
	}
	return w
}

// Verdicts evaluates the criterion over the whole workload.
func Verdicts(c dominance.Criterion, w []Triple) []bool {
	out := make([]bool, len(w))
	for i, t := range w {
		out[i] = c.Dominates(t.A, t.B, t.Q)
	}
	tallyBatch(c, len(w))
	return out
}

// Accuracy holds the classification quality of a criterion against the
// ground truth over one workload.
type Accuracy struct {
	TP, FP, TN, FN int
}

// Precision returns TP/(TP+FP); 1 when the criterion returned no trues
// (matching the convention that a correct criterion scores 100%).
func (a Accuracy) Precision() float64 {
	if a.TP+a.FP == 0 {
		return 1
	}
	return float64(a.TP) / float64(a.TP+a.FP)
}

// Recall returns TP/(TP+FN); 1 when the truth contains no trues.
func (a Accuracy) Recall() float64 {
	if a.TP+a.FN == 0 {
		return 1
	}
	return float64(a.TP) / float64(a.TP+a.FN)
}

// Compare tallies got against truth. It panics if the lengths differ.
func Compare(got, truth []bool) Accuracy {
	if len(got) != len(truth) {
		panic(fmt.Sprintf("workload: Compare of %d verdicts against %d truths", len(got), len(truth)))
	}
	var a Accuracy
	for i, g := range got {
		switch {
		case g && truth[i]:
			a.TP++
		case g && !truth[i]:
			a.FP++
		case !g && truth[i]:
			a.FN++
		default:
			a.TN++
		}
	}
	return a
}

// TimePerOp measures the criterion's average time per dominance query over
// the workload, repeating the whole batch until at least minDuration has
// elapsed (one batch minimum).
func TimePerOp(c dominance.Criterion, w []Triple, minDuration time.Duration) time.Duration {
	if len(w) == 0 {
		return 0
	}
	var ops int
	var sink bool
	start := time.Now()
	for time.Since(start) < minDuration || ops == 0 {
		for _, t := range w {
			sink = c.Dominates(t.A, t.B, t.Q) != sink
		}
		ops += len(w)
	}
	elapsed := time.Since(start)
	_ = sink
	if obs.On() {
		obsTimingRuns.Inc()
		obs.GetOrNew("workload.verdicts." + c.Name()).Add(uint64(ops))
	}
	return elapsed / time.Duration(ops)
}
