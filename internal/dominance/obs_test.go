package dominance

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
)

// obsWorkload builds the fixture the observability tests share: one fixed
// non-overlapping pair at d=10 and a mixed query batch straddling the
// dominance boundary — half point queries (the certain-query pruning case)
// and half fat sphere queries (the quartic path).
func obsWorkload(nq int) (sa, sb geom.Sphere, queries []geom.Sphere) {
	rng := rand.New(rand.NewSource(123))
	d := 10
	for {
		sa = randSphereT(rng, d, 3, 1.5)
		sb = randSphereT(rng, d, 3, 1.5)
		if !geom.Overlap(sa, sb) {
			break
		}
	}
	queries = make([]geom.Sphere, nq)
	for i := range queries {
		c := make([]float64, d)
		for j := range c {
			c[j] = (sa.Center[j]+sb.Center[j])/2 + rng.NormFloat64()*6
		}
		if i%2 == 0 {
			queries[i] = geom.Point(c)
		} else {
			queries[i] = geom.NewSphere(c, rng.Float64()*2)
		}
	}
	return sa, sb, queries
}

var obsSink bool

// TestObsOverhead is the instrumentation cost gate of ISSUE 2: running the
// dominance kernel with the obs layer enabled must cost less than 5% over
// running it disabled. The kernel tallies into plain struct-locals and
// flushes atomically only every obsFlushEvery events, so the enabled path
// adds a byte load per exit and a register add per counted event.
func TestObsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing comparison")
	}
	sa, sb, queries := obsWorkload(512)
	defer obs.SetEnabled(true)

	// One measured round: the whole query batch, repeated reps times.
	round := func(pp *PreparedPair, reps int) time.Duration {
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			for _, q := range queries {
				obsSink = obsSink != pp.Dominates(q)
			}
		}
		return time.Since(start)
	}
	// Rounds of at least a millisecond, so one preemption or timer tick
	// cannot decide the comparison on its own.
	obs.SetEnabled(false)
	reps := 8
	for pp := PreparePair(sa, sb); round(&pp, reps) < time.Millisecond; reps *= 2 {
	}

	// Alternate enabled/disabled rounds and keep the minimum of each, so
	// scheduler noise and thermal drift hit both sides alike; accept the
	// first of three attempts that lands under the budget.
	const attempts, rounds = 3, 9
	var lastOn, lastOff time.Duration
	for a := 0; a < attempts; a++ {
		minOn, minOff := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < rounds; r++ {
			obs.SetEnabled(false)
			ppOff := PreparePair(sa, sb)
			if d := round(&ppOff, reps); d < minOff {
				minOff = d
			}
			obs.SetEnabled(true)
			ppOn := PreparePair(sa, sb)
			if d := round(&ppOn, reps); d < minOn {
				minOn = d
			}
			ppOn.FlushObs()
		}
		lastOn, lastOff = minOn, minOff
		if float64(minOn) <= float64(minOff)*1.05 {
			return
		}
	}
	t.Errorf("obs-enabled kernel %.1f%% slower than disabled (on=%v off=%v, %d reps a round), budget 5%%",
		100*(float64(lastOn)/float64(lastOff)-1), lastOn, lastOff, reps)
}

// TestObsPairCounters pins the prepared-pair event accounting: every stage
// of PreparedPair.verdict that settles a check moves exactly its own
// counter by one after a flush — none for the exits that mirror
// Hyperbola's own (MDD, point query) or that settle on a closed-form
// candidate — and returns Hyperbola's verdict; with the gate off nothing
// moves. The registry is zeroed per fixture (obs.ResetForTest), so every
// assertion reads an absolute counter value.
func TestObsPairCounters(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)

	// One pair for every fixture: the foci at distance 20, rab = 2, so the
	// branch's vertex is at x = 9 and cq = (-5, 0.25, 0) is about 14 from it.
	// With ca well outside Sq the local-Lipschitz bound certifies a
	// dominated fat query; with ca inside Sq (da ≤ r) the bound does not
	// apply, and the chord certificate proves dmin > r instead, or, for Sq
	// past the vertex, the closed-form candidates disprove it. Far off the
	// axis the witness certificate finds a branch point nearer than r. A
	// radius within the certificate's margin of dmin leaves only the
	// quartic to decide.
	fa, fb := geom.NewSphere([]float64{0, 0, 0}, 1), geom.NewSphere([]float64{20, 0, 0}, 1)
	inside := geom.NewSphere([]float64{-5, 0.25, 0}, 10)
	inside.Radius = HyperbolaDmin(fa, fb, inside) * (1 - 1e-12)
	for _, fx := range []struct {
		name    string
		sb, sq  geom.Sphere
		counter string // "" when the exit is not counted
		want    bool
	}{
		{"overlap", fa, geom.NewSphere([]float64{-5, 0, 0}, 1), "dominance.prepared.overlap_shortcircuit", false},
		{"outside the MDD band", fb, geom.NewSphere([]float64{12, 0, 0}, 1), "", false},
		{"point query", fb, geom.Point([]float64{-5, 0.25, 0}), "", true},
		{"Lipschitz accept", fb, geom.NewSphere([]float64{-30, 2, 0}, 10), "dominance.prepared.coarse_accepts", true},
		{"closed-form reject", fb, geom.NewSphere([]float64{-5, 0.25, 0}, 20), "", false},
		{"chord accept", fb, geom.NewSphere([]float64{-5, 0.25, 0}, 10), "dominance.prepared.coarse_accepts", true},
		{"witness reject", fb, geom.NewSphere([]float64{-20, 10, 0}, 28.53), "dominance.prepared.coarse_rejects", false},
		{"quartic", fb, inside, "dominance.quartic_solves", true},
	} {
		ref := (Hyperbola{}).Dominates(fa, fx.sb, fx.sq)
		obs.ResetForTest()
		pair := PreparePair(fa, fx.sb)
		got := pair.Dominates(fx.sq)
		if got != ref || got != fx.want {
			t.Errorf("%s: PreparedPair = %v, Hyperbola = %v, fixture built for %v", fx.name, got, ref, fx.want)
		}
		pair.FlushObs()
		want := obs.Snap{}
		if fx.counter != "" {
			want[fx.counter] = 1
		}
		if moved := obs.Snapshot().Diff(obs.Snap{}); !reflect.DeepEqual(moved, want) {
			t.Errorf("%s: counters moved %v, want %v", fx.name, moved, want)
		}
	}

	// With the gate off, nothing may move.
	sa, sb, queries := obsWorkload(64)
	obs.SetEnabled(false)
	obs.ResetForTest()
	pp := PreparePair(sa, sb)
	for _, q := range queries {
		obsSink = obsSink != pp.Dominates(q)
	}
	pp.FlushObs()
	if moved := obs.Snapshot().Diff(obs.Snap{}); len(moved) != 0 {
		t.Errorf("counters moved while disabled: %v", moved)
	}
}

// TestObsHyperbolaCounters pins the stateless-path accounting: one quartic
// solve per fat query whose center lies inside Ra, and nothing else — not
// even for the overlap short-circuit.
func TestObsHyperbolaCounters(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)
	sa, sb, queries := obsWorkload(32)

	obs.ResetForTest()
	crit := Hyperbola{}
	var solves uint64
	for _, q := range queries {
		obsSink = obsSink != crit.Dominates(sa, sb, q)
		if red, _ := reduce(sa, sb, q); red.inside && q.Radius > 0 {
			solves++
		}
	}
	crit.Dominates(sa, sa, queries[1]) // an overlapping pair
	if solves == 0 {
		t.Fatal("no query of the workload reaches the quartic")
	}
	want := obs.Snap{"dominance.quartic_solves": solves}
	if moved := obs.Snapshot().Diff(obs.Snap{}); !reflect.DeepEqual(moved, want) {
		t.Errorf("counters moved %v, want %v", moved, want)
	}
}

// TestObsAutoFlush verifies the threshold drain: a pair that tallies more
// than obsFlushEvery events publishes without an explicit FlushObs.
func TestObsAutoFlush(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)
	sa, _, queries := obsWorkload(16)

	obs.ResetForTest()
	pp := PreparePair(sa, sa) // overlapping: every check is one tallied event
	n := obsFlushEvery + 5
	for i := 0; i < n; i++ {
		obsSink = obsSink != pp.Dominates(queries[i%len(queries)])
	}
	const name = "dominance.prepared.overlap_shortcircuit"
	if got := obs.Snapshot().Get(name); got < obsFlushEvery {
		t.Errorf("%s = %d before explicit flush, want >= %d (auto-flush)", name, got, obsFlushEvery)
	}
	pp.FlushObs()
	if got := obs.Snapshot().Get(name); got != uint64(n) {
		t.Errorf("%s = %d after flush, want %d", name, got, n)
	}
}
