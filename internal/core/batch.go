package core

// BatchUpdater is implemented by summaries with a native amortized path
// for the common case of unit-count arrivals: UpdateBatch(items) must
// ingest exactly the multiset items with unit counts — N() advances by
// len(items) — while preserving the summary's accuracy guarantees.
// Implementations exploit the batch shape — pre-aggregating duplicate
// items, hoisting per-row hash state out of the item loop, or taking a
// lock once per batch instead of once per arrival — which is where the
// throughput headroom of the paper's update-cost comparison lives.
//
// Equivalence to the scalar Update loop is bit-exact for
// order-insensitive summaries (the linear sketches, and Space-Saving
// above its churn floor); summaries whose state depends on arrival
// order within a batch (Misra–Gries' decrement schedule) may shift
// individual estimates within their documented deterministic error
// bound, never beyond it. The registry-wide property test
// (batch_test.go) pins the exact contract per algorithm.
//
// Implementations may retain scratch state between calls (so a single
// summary's batch path is not safe for concurrent use — exactly like
// Update), but must not retain the items slice itself: callers are free
// to reuse the buffer for the next batch.
type BatchUpdater interface {
	UpdateBatch(items []Item)
}

// PairUpdater is implemented by the linear sketches, which apply a
// collapsed batch — distinct items with their arrival counts, as
// Collapse produces — natively. UpdatePairs(items, counts) must equal
// Update(items[i], counts[i]) for every i, in order. Tracked hands its
// collapsed batch to the inner sketch through it, so each batch is
// aggregated once.
type PairUpdater interface {
	// Linear reports whether the summary's state depends only on how
	// often each item arrived, not on the order of the arrivals, so a
	// collapsed batch applied through UpdatePairs leaves the state the
	// arrival-by-arrival replay leaves. A conservative Count-Min reports
	// false, and UpdatePairs must not be called on it.
	Linear() bool
	UpdatePairs(items []Item, counts []int64)
}

// UpdateAll feeds one unit-count arrival per element of items into s,
// using the native batch path when s implements BatchUpdater and the
// scalar Update loop otherwise. It is the single ingestion entry point
// the harness, benchmarks, and CLIs use, so every summary — batched or
// not — replays a stream through the same code path.
func UpdateAll(s Summary, items []Item) {
	if b, ok := s.(BatchUpdater); ok {
		b.UpdateBatch(items)
		return
	}
	for _, it := range items {
		s.Update(it, 1)
	}
}

// DefaultBatchSize is the ingest batch length used by the harness and
// CLIs when replaying materialized streams. It bounds the auxiliary
// space of pre-aggregating batch implementations (their scratch maps
// hold at most one entry per distinct item in a batch) while being long
// enough to amortize per-batch costs (lock acquisitions, hash-state
// loads) down to noise.
const DefaultBatchSize = 4096

// UpdateBatches replays items into s in batches of at most batch items
// (DefaultBatchSize when batch <= 0), preserving stream order. Unlike a
// single UpdateAll call over the whole stream, the bounded batch length
// keeps batching implementations' scratch space O(batch) rather than
// O(distinct items).
func UpdateBatches(s Summary, items []Item, batch int) {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	for len(items) > 0 {
		n := batch
		if n > len(items) {
			n = len(items)
		}
		UpdateAll(s, items[:n])
		items = items[n:]
	}
}
