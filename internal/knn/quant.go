package knn

import (
	"sync/atomic"

	"hyperdom/internal/packed"
)

// QuantMode selects which quantized tier of a frozen snapshot the packed
// leaf pass consults before it takes exact distances (DESIGN.md §12): it is
// the snapshot's tier type. The mode changes only how much work a search
// does, never its answer: the narrow bounds are conservative, survivors
// take the exact distance, and result sets stay bit-identical to the
// pointer path — and Stats to the exact packed walk — across all modes.
// Process-wide, read once per search.
type QuantMode = packed.Tier

const (
	// QuantNone takes the exact distance of every leaf item.
	QuantNone = packed.TierNone
	// QuantF32 coarse-filters on the float32 tier. The default: half the
	// bytes per candidate with slack far below any realistic inter-point
	// distance.
	QuantF32 = packed.TierF32
	// QuantI8 coarse-filters on the int8 tier: one byte per coordinate
	// against per-node scale/offset.
	QuantI8 = packed.TierI8
)

var quantMode atomic.Uint32

func init() { quantMode.Store(uint32(QuantF32)) }

// SetQuantMode switches the process-wide quantization mode and returns the
// previous one. Safe to call concurrently with searches; each search reads
// the mode once at dispatch.
func SetQuantMode(m QuantMode) QuantMode { return QuantMode(quantMode.Swap(uint32(m))) }

// QuantModeNow returns the current process-wide quantization mode.
func QuantModeNow() QuantMode { return QuantMode(quantMode.Load()) }
