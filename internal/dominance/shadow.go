package dominance

import (
	"sync/atomic"

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
// to prune. Shadow mode multiplies the cost of every dominance check
// roughly five-fold; it is strictly opt-in via SetShadow and never changes
// a query's answer — callers always get the primary criterion's verdict.

var shadowEnabled atomic.Bool

// SetShadow toggles shadow evaluation process-wide.
func SetShadow(on bool) { shadowEnabled.Store(on) }

// ShadowOn reports whether shadow evaluation is enabled.
func ShadowOn() bool { return shadowEnabled.Load() }

// shadowCompetitors are the cheaper Table 1 criteria audited against
// Hyperbola, in table order: MinMax and MBR (correct, not sound), GP
// (correct; sound only for d ≤ 2), Trigonometric (sound, not correct).
var shadowCompetitors = []Criterion{MinMax{}, MBR{}, GP{}, Trigonometric{}}

// ShadowCompetitorNames returns the audited criteria's names; bit i of a
// ShadowCompare mask refers to the i-th name.
func ShadowCompetitorNames() []string {
	names := make([]string, len(shadowCompetitors))
	for i, c := range shadowCompetitors {
		names[i] = c.Name()
	}
	return names
}

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

// ShadowAudit runs ShadowCompare for its side effects and returns the
// primary criterion's verdict, so a search running in shadow mode answers
// exactly as it would without it. When primary is Hyperbola its verdict is
// reused rather than recomputed.
func ShadowAudit(primary Criterion, sa, sb, sq geom.Sphere, tb *obs.TraceBuf) bool {
	hyp, _ := ShadowCompare(sa, sb, sq, tb)
	if _, ok := primary.(Hyperbola); ok {
		return hyp
	}
	return primary.Dominates(sa, sb, sq)
}
