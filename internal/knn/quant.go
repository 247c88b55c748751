package knn

import (
	"fmt"
	"sync/atomic"

	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
)

// QuantMode selects which quantized tier of a frozen snapshot the packed
// traversals consult before touching the exact float64 blocks (ISSUE 6).
// The mode changes only how much work a search does, never its answer: the
// narrow bounds are conservative, survivors fall back to the exact kernels,
// and result sets stay bit-identical to the pointer path — and Stats to the
// exact packed walk — across all modes. Process-wide, read once per search.
type QuantMode int32

const (
	// QuantNone streams the exact float64 blocks directly (the ISSUE 5
	// behavior).
	QuantNone QuantMode = iota
	// QuantF32 coarse-filters on the float32 tier. The default: half the
	// bytes per candidate with slack far below any realistic inter-point
	// distance.
	QuantF32
	// QuantI8 coarse-filters on the int8 tier: one byte per coordinate
	// against per-node scale/offset.
	QuantI8
)

func (m QuantMode) String() string {
	switch m {
	case QuantNone:
		return "none"
	case QuantF32:
		return "f32"
	case QuantI8:
		return "i8"
	}
	return fmt.Sprintf("QuantMode(%d)", int32(m))
}

// ParseQuantMode maps the flag spelling ("none", "f32", "i8") to a mode.
func ParseQuantMode(s string) (QuantMode, error) {
	switch s {
	case "none":
		return QuantNone, nil
	case "f32":
		return QuantF32, nil
	case "i8":
		return QuantI8, nil
	}
	return QuantNone, fmt.Errorf("knn: unknown quant mode %q (want none, f32 or i8)", s)
}

// tier maps the mode to the snapshot tier the packed accessors take.
func (m QuantMode) tier() packed.Tier {
	switch m {
	case QuantF32:
		return packed.TierF32
	case QuantI8:
		return packed.TierI8
	}
	return packed.TierNone
}

var quantMode atomic.Int32

func init() {
	quantMode.Store(int32(QuantF32))
	publishQuantModeGauge(QuantF32)
}

// publishQuantModeGauge keeps the live hyperdom_quant_mode gauge in step
// with the process-wide mode (ISSUE 9): a one-hot labeled family — the
// active mode's instance reads 1, the others 0 — so a scrape reflects a
// runtime SetQuantMode flip immediately, where the build_info gauge only
// records the mode the server booted with.
func publishQuantModeGauge(active QuantMode) {
	for _, m := range []QuantMode{QuantNone, QuantF32, QuantI8} {
		v := 0.0
		if m == active {
			v = 1.0
		}
		obs.SetGauge("quant_mode", `mode="`+m.String()+`"`, v)
	}
}

// SetQuantMode switches the process-wide quantization mode and returns the
// previous one. Safe to call concurrently with searches; each search reads
// the mode once at dispatch. The hyperdom_quant_mode gauge follows every
// flip.
func SetQuantMode(m QuantMode) QuantMode {
	prev := QuantMode(quantMode.Swap(int32(m)))
	publishQuantModeGauge(m)
	return prev
}

// QuantModeNow returns the current process-wide quantization mode.
func QuantModeNow() QuantMode { return QuantMode(quantMode.Load()) }
