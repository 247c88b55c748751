package dominance

import (
	"sync"

	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
)

// Shadow evaluation (ISSUE 4) instruments the paper's Table 1 in vivo:
// alongside whichever criterion a search actually uses, every cheaper
// criterion is evaluated on the same (s_a, s_b, s_q) instance and compared
// against Hyperbola, the correct-and-sound reference. A disagreement is
// either a missed dominance (Hyperbola proves s_b dominated, the cheap
// criterion cannot — the unsound side, a pruning opportunity lost) or a
// false positive (the cheap criterion claims dominance Hyperbola refutes —
// the incorrect side, which would wrongly discard a result). Disagreements
// land in per-criterion counters. The audit multiplies the cost of every dominance check roughly
// five-fold, so it is a criterion a caller asks for by wrapping the one it
// would have used — Shadowed — and never changes a query's answer: callers
// always get the primary criterion's verdict.

// Shadowed decorates a criterion with the shadow audit: Name, Correct and
// Sound are the primary's, and every Dominates call also runs
// ShadowCompare on the same instance. Two searches in one process can
// differ — the audit belongs to the value, not the process.
type Shadowed struct{ Criterion }

// Dominates returns the primary criterion's verdict after auditing the
// instance. When the primary is Hyperbola its verdict is reused rather than
// recomputed.
func (s Shadowed) Dominates(sa, sb, sq geom.Sphere) bool {
	hyp, _ := ShadowCompare(sa, sb, sq)
	if _, ok := s.Criterion.(Hyperbola); ok {
		return hyp
	}
	return s.Criterion.Dominates(sa, sb, sq)
}

// shadowCompetitors are the cheaper Table 1 criteria audited against
// Hyperbola, in table order: MinMax and MBR (correct, not sound), GP
// (correct; sound only for d ≤ 2), Trigonometric (sound, not correct).
var shadowCompetitors = []Criterion{MinMax{}, MBR{}, GP{}, Trigonometric{}}

// shadowCounters are the audit's counters. They register on the first
// ShadowCompare, so only a process that runs the audit (knnbench -shadow)
// has them. missed and falsePos are indexed like shadowCompetitors: missed =
// Hyperbola true, competitor false; false_positive = competitor true,
// Hyperbola false.
type shadowCounters struct {
	checks           *obs.Counter
	missed, falsePos [4]*obs.Counter
}

var shadowObs = sync.OnceValue(func() *shadowCounters {
	sc := &shadowCounters{checks: obs.New("dominance.shadow.checks")}
	for i, c := range shadowCompetitors {
		sc.missed[i] = obs.New("dominance.shadow.missed_prune." + c.Name())
		sc.falsePos[i] = obs.New("dominance.shadow.false_positive." + c.Name())
	}
	return sc
})

// ShadowCompare evaluates Hyperbola and every competitor on one dominance
// instance. It returns Hyperbola's verdict and a bitmask of competitors
// that disagreed (bit i = shadowCompetitors[i]), and counts both in the
// audit's counters.
func ShadowCompare(sa, sb, sq geom.Sphere) (bool, uint8) {
	sc := shadowObs()
	hyp := Hyperbola{}.Dominates(sa, sb, sq)
	sc.checks.Inc()
	var mask uint8
	for i, c := range shadowCompetitors {
		if c.Dominates(sa, sb, sq) == hyp {
			continue
		}
		mask |= 1 << i
		if hyp {
			sc.missed[i].Inc()
		} else {
			sc.falsePos[i].Inc()
		}
	}
	return hyp, mask
}
