package dominance

import (
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
// land in per-criterion counters and, for traced queries, as SpanShadow
// events, so a trace shows the exact node and item where e.g. MinMax failed
// to prune. The audit multiplies the cost of every dominance check roughly
// five-fold, so it is a criterion a caller asks for by wrapping the one it
// would have used — Shadowed — and never changes a query's answer: callers
// always get the primary criterion's verdict.

// Shadowed decorates a criterion with the shadow audit: Name, Correct and
// Sound are the primary's, and every Dominates call also runs
// ShadowCompare on the same instance. Two searches in one process can
// differ — the audit belongs to the value, not the process.
type Shadowed struct{ Criterion }

// Dominates returns the primary criterion's verdict after auditing the
// instance.
func (s Shadowed) Dominates(sa, sb, sq geom.Sphere) bool { return s.Audit(sa, sb, sq, nil) }

// Audit is Dominates for a traced search: disagreements are also recorded
// into tb (which may be nil). When the primary is Hyperbola its verdict is
// reused rather than recomputed.
func (s Shadowed) Audit(sa, sb, sq geom.Sphere, tb *obs.TraceBuf) bool {
	hyp, _ := ShadowCompare(sa, sb, sq, tb)
	if _, ok := s.Criterion.(Hyperbola); ok {
		return hyp
	}
	return s.Criterion.Dominates(sa, sb, sq)
}

// shadowCompetitors are the cheaper Table 1 criteria audited against
// Hyperbola, in table order: MinMax and MBR (correct, not sound), GP
// (correct; sound only for d ≤ 2), Trigonometric (sound, not correct).
var shadowCompetitors = []Criterion{MinMax{}, MBR{}, GP{}, Trigonometric{}}

var (
	obsShadowChecks = obs.New("dominance.shadow.checks")
	// Indexed like shadowCompetitors: missed = Hyperbola true, competitor
	// false; false_positive = competitor true, Hyperbola false.
	obsShadowMissed   [4]*obs.Counter
	obsShadowFalsePos [4]*obs.Counter
)

func init() {
	for i, c := range shadowCompetitors {
		obsShadowMissed[i] = obs.New("dominance.shadow.missed_prune." + c.Name())
		obsShadowFalsePos[i] = obs.New("dominance.shadow.false_positive." + c.Name())
	}
}

// ShadowCompare evaluates Hyperbola and every competitor on one dominance
// instance. It returns Hyperbola's verdict and a bitmask of competitors
// that disagreed (bit i = shadowCompetitors[i]). Disagreement counters
// move when the obs gate is on; each disagreement is also recorded into tb
// when a trace is active (tb may be nil).
func ShadowCompare(sa, sb, sq geom.Sphere, tb *obs.TraceBuf) (bool, uint8) {
	hyp := Hyperbola{}.Dominates(sa, sb, sq)
	on := obs.On()
	if on {
		obsShadowChecks.Inc()
	}
	var mask uint8
	for i, c := range shadowCompetitors {
		v := c.Dominates(sa, sb, sq)
		if v == hyp {
			continue
		}
		mask |= 1 << i
		if on {
			if hyp {
				obsShadowMissed[i].Inc()
			} else {
				obsShadowFalsePos[i].Inc()
			}
		}
		if tb != nil && tb.Active() {
			tb.Shadow(c.Name(), v, hyp)
		}
	}
	return hyp, mask
}
