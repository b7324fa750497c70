package sketches

import (
	"fmt"
	"math"

	"streamfreq/internal/core"
)

// Range and quantile queries over a hierarchy's dyadic levels — the
// classic Count-Min application beyond point queries (Cormode &
// Muthukrishnan), included because the paper positions these sketches as
// general database summaries, not only heavy-hitter finders. freqd
// serves both (/v1/range, /v1/quantile).

// RangeEstimate returns an estimate of the total count of items in
// [lo, hi] (inclusive) using the dyadic decomposition already maintained
// for heavy-hitter queries: any range over a b-ary universe decomposes
// into O(b·log_b U) level nodes, each answered by that level's sketch.
//
// For Count-Min hierarchies the estimate never underestimates (each node
// estimate is one-sided) and the expected overestimate is O(ε·N·log U).
func (h *Hierarchical) RangeEstimate(lo, hi uint64) (int64, error) {
	if lo > hi {
		return 0, fmt.Errorf("sketches: empty range [%d, %d]", lo, hi)
	}
	if h.universeBits < 64 {
		mask := uint64(1)<<h.universeBits - 1
		if hi > mask {
			hi = mask
		}
		if lo > mask {
			return 0, nil
		}
	}
	var total int64
	// Greedy dyadic cover: walk from lo upward, always consuming the
	// largest aligned block that fits in the remaining range.
	for cur := lo; cur <= hi; {
		// Largest level whose block at cur is aligned and fits.
		level := 0
		for level+1 < len(h.levels) {
			shift := uint(level+1) * h.bits
			blockLen := uint64(1) << shift
			if cur&(blockLen-1) != 0 { // not aligned at the next level
				break
			}
			if blockLen-1 > hi-cur { // next level block would overshoot
				break
			}
			level++
		}
		shift := uint(level) * h.bits
		total += h.levels[level].Estimate(core.Item(cur >> shift))
		step := uint64(1) << shift
		if hi-cur < step { // avoid wrap at the top of the universe
			break
		}
		cur += step
	}
	return total, nil
}

// QuantileQuery returns an item value v such that the estimated number
// of stream items ≤ v is at least q·N — the approximate q-quantile of the
// *item values* (meaningful for ordered universes such as timestamps,
// ports, or prices). It binary-searches the universe using prefix
// RangeEstimate sums, the standard dyadic quantile construction over a
// Count-Min hierarchy.
func (h *Hierarchical) QuantileQuery(q float64) (uint64, error) {
	if h.n <= 0 {
		return 0, fmt.Errorf("sketches: quantile of an empty sketch")
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.n)))
	var maxItem uint64 = math.MaxUint64
	if h.universeBits < 64 {
		maxItem = 1<<h.universeBits - 1
	}
	lo, hi := uint64(0), maxItem
	for lo < hi {
		mid := lo + (hi-lo)/2
		rank, err := h.RangeEstimate(0, mid)
		if err != nil {
			return 0, err
		}
		if rank >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
