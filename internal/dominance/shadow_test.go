package dominance

import (
	"math/rand"
	"testing"

	"hyperdom/internal/obs"
)

// shadowWorkload generates borderline-heavy dominance instances across
// dimensions 2..8 — the decision-boundary regime where Table 1's criteria
// actually disagree.
func shadowWorkload(seed int64, n int) []instance {
	rng := rand.New(rand.NewSource(seed))
	w := make([]instance, n)
	for i := range w {
		w[i] = randInstance(rng, 2+i%7)
	}
	return w
}

// shadowCompetitorNames returns the audited criteria's names; bit i of a
// ShadowCompare mask refers to the i-th name.
func shadowCompetitorNames() []string {
	names := make([]string, len(shadowCompetitors))
	for i, c := range shadowCompetitors {
		names[i] = c.Name()
	}
	return names
}

// TestShadowComparePolarity checks ShadowCompare against Table 1 on a seed
// workload: the correct criteria (MinMax, MBR, GP) may only land on the
// missed-prune side of a disagreement, the sound one (Trigonometric) only
// on the false-positive side, and the cheap criteria do disagree with
// Hyperbola somewhere in the workload (otherwise the audit proves nothing).
func TestShadowComparePolarity(t *testing.T) {
	names := shadowCompetitorNames()
	missed := make(map[string]int)
	falsePos := make(map[string]int)

	for _, in := range shadowWorkload(77, 4000) {
		hyp, mask := ShadowCompare(in.sa, in.sb, in.sq)
		if want := (Hyperbola{}).Dominates(in.sa, in.sb, in.sq); hyp != want {
			t.Fatalf("ShadowCompare verdict %v diverges from Hyperbola %v", hyp, want)
		}
		for i, name := range names {
			if mask&(1<<i) == 0 {
				continue
			}
			if hyp {
				missed[name]++
			} else {
				falsePos[name]++
			}
		}
	}

	// Table 1 polarity: correct criteria never produce false positives.
	for _, name := range []string{"MinMax", "MBR", "GP"} {
		if falsePos[name] != 0 {
			t.Errorf("correct criterion %s produced %d false positives", name, falsePos[name])
		}
	}
	// The sound criterion never misses a prune Hyperbola finds.
	if missed["Trigonometric"] != 0 {
		t.Errorf("sound criterion Trigonometric missed %d prunes", missed["Trigonometric"])
	}
	// And the audit must observe real disagreement on both sides somewhere.
	if missed["MinMax"] == 0 || missed["MBR"] == 0 {
		t.Errorf("workload produced no missed prunes for MinMax/MBR: %v", missed)
	}
	if falsePos["Trigonometric"] == 0 {
		t.Errorf("workload produced no Trigonometric false positives: %v", falsePos)
	}
}

// TestShadowCompareCounters checks the per-criterion disagreement counters
// mirror what ShadowCompare reports, and stand still when the obs gate is
// off.
func TestShadowCompareCounters(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)
	obs.ResetForTest()

	names := shadowCompetitorNames()
	w := shadowWorkload(78, 2000)
	wantChecks := uint64(len(w))
	wantMissed := make(map[string]uint64)
	wantFalsePos := make(map[string]uint64)
	for _, in := range w {
		hyp, mask := ShadowCompare(in.sa, in.sb, in.sq)
		for i, name := range names {
			if mask&(1<<i) == 0 {
				continue
			}
			if hyp {
				wantMissed[name]++
			} else {
				wantFalsePos[name]++
			}
		}
	}

	snap := obs.Snapshot()
	if got := snap.Get("dominance.shadow.checks"); got != wantChecks {
		t.Errorf("dominance.shadow.checks = %d, want %d", got, wantChecks)
	}
	for _, name := range names {
		if got := snap.Get("dominance.shadow.missed_prune." + name); got != wantMissed[name] {
			t.Errorf("missed_prune.%s = %d, want %d", name, got, wantMissed[name])
		}
		if got := snap.Get("dominance.shadow.false_positive." + name); got != wantFalsePos[name] {
			t.Errorf("false_positive.%s = %d, want %d", name, got, wantFalsePos[name])
		}
	}

	// Gate off: verdicts unchanged, counters frozen.
	obs.SetEnabled(false)
	for _, in := range w[:200] {
		hyp, _ := ShadowCompare(in.sa, in.sb, in.sq)
		if want := (Hyperbola{}).Dominates(in.sa, in.sb, in.sq); hyp != want {
			t.Fatalf("gate-off ShadowCompare verdict diverged")
		}
	}
	obs.SetEnabled(true)
	if got := obs.Snapshot().Get("dominance.shadow.checks"); got != wantChecks {
		t.Errorf("gate-off ShadowCompare moved checks to %d, want %d", got, wantChecks)
	}
}

// TestShadowAudit checks the decorator's contract: whatever the audit
// observes, the caller gets exactly the primary criterion's answer, and the
// criterion's identity (Name, Correct, Sound) is the primary's.
func TestShadowAudit(t *testing.T) {
	for _, crit := range All() {
		sh := Shadowed{crit}
		if sh.Name() != crit.Name() || sh.Correct() != crit.Correct() || sh.Sound() != crit.Sound() {
			t.Errorf("Shadowed{%s} reports %s/%v/%v", crit.Name(), sh.Name(), sh.Correct(), sh.Sound())
		}
		for _, in := range shadowWorkload(79, 1000) {
			want := crit.Dominates(in.sa, in.sb, in.sq)
			if got := sh.Dominates(in.sa, in.sb, in.sq); got != want {
				t.Fatalf("Shadowed{%s}.Dominates = %v, want the primary verdict %v",
					crit.Name(), got, want)
			}
		}
	}
}
