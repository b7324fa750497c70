package sketches

import (
	"fmt"
	"math"

	"streamfreq/internal/core"
)

// Range queries and inner products — the two classic Count-Min
// applications beyond point queries (Cormode & Muthukrishnan), included
// because the paper positions these sketches as general database
// summaries, not only heavy-hitter finders.

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

// InnerProduct estimates the inner product ⟨a, b⟩ = Σ_x a(x)·b(x) of the
// frequency vectors of two streams sketched with identical parameters —
// the classic equi-join size estimator. The estimate is the minimum over
// rows of the row-wise dot products; for insert-only streams it never
// underestimates, and overestimates by at most ε·N_a·N_b with probability
// 1−δ.
func (c *CountMin) InnerProduct(o *CountMin) (int64, error) {
	if err := c.family.Compatible(o.family); err != nil {
		return 0, err
	}
	if c.conservative || o.conservative {
		return 0, fmt.Errorf("sketches: inner products require linear (non-conservative) sketches")
	}
	est := int64(math.MaxInt64)
	for i := range c.rows {
		var dot int64
		for j := range c.rows[i] {
			dot += c.rows[i][j] * o.rows[i][j]
		}
		if dot < est {
			est = dot
		}
	}
	return est, nil
}

// F2Estimate estimates the second frequency moment F2 = Σ_x f(x)² of the
// sketched stream, via the self inner product. (For Count Sketch the
// analogous row-sum-of-squares median is the AMS estimator.)
func (c *CountMin) F2Estimate() int64 {
	v, err := c.InnerProduct(c)
	if err != nil {
		// Self inner product cannot be incompatible; conservative
		// sketches are rejected by construction before this point.
		panic(err)
	}
	return v
}

// F2Estimate returns the AMS/Count-Sketch estimate of the second moment:
// the median over rows of the row's sum of squared counters. Unbiased
// with relative error O(1/√width).
func (c *CountSketch) F2Estimate() int64 {
	var buf [medianRows]int64
	vals := buf[:0]
	for _, row := range c.rows {
		var s int64
		for _, v := range row {
			s += v * v
		}
		vals = append(vals, s)
	}
	return median(vals)
}
