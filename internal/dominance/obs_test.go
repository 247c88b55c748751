package dominance

import (
	"math/rand"
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
// flushes atomically only every obsFlushEvery queries, so the enabled path
// adds a handful of register adds per call.
func TestObsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing comparison")
	}
	sa, sb, queries := obsWorkload(512)
	defer obs.SetEnabled(true)

	// One measured round: the whole query batch, repeated a few times so a
	// round lasts long enough for the monotonic clock to resolve it.
	round := func(pp *PreparedPair) time.Duration {
		start := time.Now()
		for rep := 0; rep < 8; rep++ {
			for _, q := range queries {
				obsSink = obsSink != pp.Dominates(q)
			}
		}
		return time.Since(start)
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
			if d := round(&ppOff); d < minOff {
				minOff = d
			}
			obs.SetEnabled(true)
			ppOn := PreparePair(sa, sb)
			if d := round(&ppOn); d < minOn {
				minOn = d
			}
			ppOn.FlushObs()
		}
		lastOn, lastOff = minOn, minOff
		if float64(minOn) <= float64(minOff)*1.05 {
			return
		}
	}
	t.Errorf("obs-enabled kernel %.1f%% slower than disabled (on=%v off=%v), budget 5%%",
		100*(float64(lastOn)/float64(lastOff)-1), lastOn, lastOff)
}

// TestObsPairCounters pins the prepared-pair event accounting: queries,
// reuse hits, resets, verdicts and quartic solves must land in the
// registry after a flush, and must not move while the gate is off. The
// registry is zeroed up front (obs.ResetForTest) so every assertion reads
// an absolute counter value rather than diffing snapshots.
func TestObsPairCounters(t *testing.T) {
	sa, sb, queries := obsWorkload(64)
	defer obs.SetEnabled(true)

	obs.SetEnabled(true)
	obs.ResetForTest()
	pp := PreparePair(sa, sb)
	trues, falses := 0, 0
	for _, q := range queries {
		if pp.Dominates(q) {
			trues++
		} else {
			falses++
		}
	}
	pp.FlushObs()
	got := obs.Snapshot()

	if got := got.Get("dominance.prepared.queries"); got != uint64(len(queries)) {
		t.Errorf("prepared.queries = %d, want %d", got, len(queries))
	}
	if got := got.Get("dominance.prepared.resets"); got != 1 {
		t.Errorf("prepared.resets = %d, want 1", got)
	}
	if got := got.Get("dominance.prepared.reuse_hits"); got != uint64(len(queries)-1) {
		t.Errorf("prepared.reuse_hits = %d, want %d", got, len(queries)-1)
	}
	if got := got.Get("dominance.prepared.verdict_true"); got != uint64(trues) {
		t.Errorf("prepared.verdict_true = %d, want %d", got, trues)
	}
	if got := got.Get("dominance.prepared.verdict_false"); got != uint64(falses) {
		t.Errorf("prepared.verdict_false = %d, want %d", got, falses)
	}
	if trues+falses != len(queries) {
		t.Fatalf("verdict partition broken: %d+%d != %d", trues, falses, len(queries))
	}

	// Where a dominated fat query is settled. All fixtures have the foci at
	// distance 20, rab = 2 and the query behind ca on the focal axis's side,
	// too fat for the focal accept ((db−da−rab)/2 ≈ 9 < r). With ca well
	// outside Sq the local-Lipschitz bound certifies the verdict; with ca
	// inside Sq (da ≤ r) the bound does not apply, and the chord certificate
	// proves dmin ≈ 14 > r instead. Neither reaches the quartic. A radius
	// within the certificate's margin of dmin leaves only the quartic to
	// decide.
	fa, fb := geom.NewSphere([]float64{0, 0, 0}, 1), geom.NewSphere([]float64{20, 0, 0}, 1)
	pair := PreparePair(fa, fb)
	inside := geom.NewSphere([]float64{-5, 0.25, 0}, 10)
	inside.Radius = HyperbolaDmin(fa, fb, inside) * (1 - 1e-12)
	for _, fx := range []struct {
		name            string
		sq              geom.Sphere
		coarse, quartic uint64
	}{
		{"bound settles", geom.NewSphere([]float64{-30, 2, 0}, 10), 1, 0},
		{"bound cannot apply: the certificate settles", geom.NewSphere([]float64{-5, 0.25, 0}, 10), 1, 0},
		{"inside the certificate's margin", inside, 0, 1},
	} {
		obs.ResetForTest()
		if !pair.Dominates(fx.sq) {
			t.Errorf("%s: fixture is not dominated", fx.name)
		}
		pair.FlushObs()
		got := obs.Snapshot()
		if c, q := got.Get("dominance.prepared.coarse_accepts"), got.Get("dominance.quartic_solves"); c != fx.coarse || q != fx.quartic {
			t.Errorf("%s: coarse_accepts = %d, quartic_solves = %d, want %d and %d", fx.name, c, q, fx.coarse, fx.quartic)
		}
	}

	// With the gate off, nothing may move.
	obs.SetEnabled(false)
	obs.ResetForTest()
	pp2 := PreparePair(sa, sb)
	for _, q := range queries {
		obsSink = obsSink != pp2.Dominates(q)
	}
	pp2.FlushObs()
	if moved := obs.Snapshot().Diff(obs.Snap{}); len(moved) != 0 {
		t.Errorf("counters moved while disabled: %v", moved)
	}
}

// TestObsHyperbolaCounters pins the stateless-path accounting, including
// the overlap short-circuit.
func TestObsHyperbolaCounters(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)
	sa, sb, queries := obsWorkload(32)

	obs.ResetForTest()
	crit := Hyperbola{}
	for _, q := range queries {
		obsSink = obsSink != crit.Dominates(sa, sb, q)
	}
	// An overlapping pair must take the short-circuit.
	crit.Dominates(sa, sa, queries[0])
	got := obs.Snapshot()

	if got := got.Get("dominance.hyperbola.invocations"); got != uint64(len(queries)+1) {
		t.Errorf("hyperbola.invocations = %d, want %d", got, len(queries)+1)
	}
	if got := got.Get("dominance.hyperbola.overlap_shortcircuit"); got != 1 {
		t.Errorf("hyperbola.overlap_shortcircuit = %d, want 1", got)
	}
	wantVerdicts := uint64(len(queries) + 1)
	if got := got.Get("dominance.hyperbola.verdict_true") + got.Get("dominance.hyperbola.verdict_false"); got != wantVerdicts {
		t.Errorf("hyperbola verdict counters sum to %d, want %d", got, wantVerdicts)
	}
}

// TestObsAutoFlush verifies the threshold drain: a pair that serves more
// than obsFlushEvery queries publishes without an explicit FlushObs.
func TestObsAutoFlush(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)
	sa, sb, queries := obsWorkload(16)

	obs.ResetForTest()
	pp := PreparePair(sa, sb)
	n := obsFlushEvery + 5
	for i := 0; i < n; i++ {
		obsSink = obsSink != pp.Dominates(queries[i%len(queries)])
	}
	if got := obs.Snapshot().Get("dominance.prepared.queries"); got < obsFlushEvery {
		t.Errorf("prepared.queries = %d before explicit flush, want >= %d (auto-flush)", got, obsFlushEvery)
	}
	pp.FlushObs()
	if got := obs.Snapshot().Get("dominance.prepared.queries"); got != uint64(n) {
		t.Errorf("prepared.queries = %d after flush, want %d", got, n)
	}
}

// TestDominatesBatch checks the batch sweep returns verdicts bit-identical
// to the one-at-a-time path and records exactly one sample into the
// batch-latency histogram per call (and none with the gate off).
func TestDominatesBatch(t *testing.T) {
	defer obs.SetEnabled(true)
	sa, sb, queries := obsWorkload(128)

	obs.SetEnabled(true)
	obs.ResetForTest()
	pp := PreparePair(sa, sb)
	want := make([]bool, len(queries))
	for i, q := range queries {
		want[i] = pp.Dominates(q)
	}
	pp2 := PreparePair(sa, sb)
	got := make([]bool, len(queries))
	pp2.DominatesBatch(queries, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DominatesBatch verdict %d = %v, per-query path says %v", i, got[i], want[i])
		}
	}
	if n := obs.MergedHist("dominance.prepared_batch_latency").Count; n != 1 {
		t.Errorf("prepared_batch_latency holds %d samples after one batch, want 1", n)
	}

	obs.SetEnabled(false)
	obs.ResetForTest()
	pp3 := PreparePair(sa, sb)
	pp3.DominatesBatch(queries, got)
	if n := obs.MergedHist("dominance.prepared_batch_latency").Count; n != 0 {
		t.Errorf("prepared_batch_latency recorded %d samples with the gate off, want 0", n)
	}

	defer func() {
		if recover() == nil {
			t.Error("mismatched slice lengths did not panic")
		}
	}()
	pp3.DominatesBatch(queries, got[:1])
}
