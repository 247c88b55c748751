package knn

import (
	"fmt"
	"sync/atomic"

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

func init() { quantMode.Store(int32(QuantF32)) }

// SetQuantMode switches the process-wide quantization mode and returns the
// previous one. Safe to call concurrently with searches; each search reads
// the mode once at dispatch.
func SetQuantMode(m QuantMode) QuantMode { return QuantMode(quantMode.Swap(int32(m))) }

// QuantModeNow returns the current process-wide quantization mode.
func QuantModeNow() QuantMode { return QuantMode(quantMode.Load()) }
