// Package counters implements the counter-based frequent-items algorithms
// compared by the paper: Frequent (Misra–Gries), Lossy Counting (LC and
// the LCD variant) and Space-Saving in both its min-heap (SSH) and
// Stream-Summary linked-list (SSL) forms, plus the Filtered
// Space-Saving refinement and Tracked, the Charikar et al. top-l roster
// that makes a point sketch enumerable.
//
// All of them maintain a set of (item, counter) pairs — at most k, or
// for Lossy Counting as many as its bucket rule keeps — and answer
// point and threshold queries from those pairs alone. All but SSL, the
// pointer-linked Stream-Summary the paper measures, and the
// FrequentNaive ablation keep those pairs in one counter store, the
// indexed min-heap of slab.go, and report its footprint as their Bytes.
// They process insert-only streams; calling Update with a negative
// count panics (Tracked takes whatever its inner sketch takes).
package counters

// mustPositive panics on non-positive counts; the counter-based
// algorithms support only the insert-only (cash-register) stream model,
// and a non-positive count indicates a harness wiring bug.
func mustPositive(name string, count int64) {
	if count <= 0 {
		panic("counters: " + name + " requires positive update counts (insert-only stream model)")
	}
}
