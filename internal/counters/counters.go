// Package counters implements the counter-based frequent-items algorithms
// compared by the paper: Frequent (Misra–Gries), Lossy Counting (LC and
// the LCD variant) and Space-Saving in both its min-heap (SSH) and
// Stream-Summary linked-list (SSL) forms, plus the Filtered
// Space-Saving refinement and Tracked, the Charikar et al. top-l roster
// that makes a point sketch enumerable.
//
// All of them maintain a set of (item, counter) pairs — at most k, or
// for Lossy Counting as many as its bucket rule keeps — and answer
// point and threshold queries from those pairs alone. All but the
// FrequentNaive ablation keep those pairs in one counter store, the
// node table of slab.go — ordered by its indexed min-heap, or, for SSL,
// by the Stream-Summary's bucket links — and report its footprint as
// their Bytes.
// They process insert-only streams; calling Update with a negative
// count panics (Tracked takes whatever its inner sketch takes).
package counters

import "fmt"

// mustPositive panics on non-positive counts; the counter-based
// algorithms support only the insert-only (cash-register) stream model,
// and a non-positive count indicates a harness wiring bug.
func mustPositive(name string, count int64) {
	if count <= 0 {
		panic("counters: " + name + " requires positive update counts (insert-only stream model)")
	}
}

// MaxBudget bounds a counter summary's budget k. The registry, the
// windowed summary and the tenant table size budgets through Budget,
// the WAL refuses a tenant record claiming more, and every decoder
// refuses a larger header, so a summary built to a budget encodes a
// blob its own decoder accepts.
const MaxBudget = 1 << 22

// Budget returns the canonical counter budget for threshold φ, k =
// ⌊1/φ⌋ + 1, times scale (Tracked's roster holds 2k), or an error when
// φ is outside (0, 1) or the budget exceeds MaxBudget.
func Budget(phi float64, scale int) (int, error) {
	if !(phi > 0 && phi < 1) {
		return 0, fmt.Errorf("counters: φ must be in (0,1), got %g", phi)
	}
	if 1/phi < MaxBudget {
		if k := scale * (int(1/phi) + 1); k <= MaxBudget {
			return k, nil
		}
	}
	return 0, fmt.Errorf("counters: φ = %g needs more than %d counters", phi, MaxBudget)
}
