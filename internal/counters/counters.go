// Package counters implements the counter-based frequent-items algorithms
// compared by the paper: Frequent (Misra–Gries), Lossy Counting (LC and
// the LCD variant), Space-Saving in both its min-heap (SSH) and
// Stream-Summary linked-list (SSL) forms, and the Sticky Sampling
// baseline, plus the Filtered Space-Saving refinement and Tracked, the
// Charikar et al. top-l roster that makes a point sketch enumerable.
//
// All of them maintain a set of at most k (item, counter) pairs and answer
// point and threshold queries from those pairs alone. The heap-based ones
// (Frequent, SSH, FSS and Tracked) keep those pairs in one counter store,
// the indexed min-heap of slab.go. They process insert-only streams;
// calling Update with a negative count panics (Tracked takes whatever its
// inner sketch takes).
package counters

// mustPositive panics on non-positive counts; the counter-based
// algorithms support only the insert-only (cash-register) stream model,
// and a non-positive count indicates a harness wiring bug.
func mustPositive(name string, count int64) {
	if count <= 0 {
		panic("counters: " + name + " requires positive update counts (insert-only stream model)")
	}
}

// entryBytes is the charged size of one (item, count, err, heap-index)
// counter slot, doubled for map/pointer overhead. Keeping the accounting
// rule in one place makes the cross-algorithm space plots consistent.
const entryBytes = 2 * (8 + 8 + 8 + 8)
