package counters

import "streamfreq/internal/core"

// Tracked wraps a point-estimate summary (typically a flat Count Sketch
// or Count-Min sketch, which cannot enumerate items) and maintains a heap
// of the highest-estimate items seen so far — exactly the algorithm of
// Charikar, Chen & Farach-Colton §3.2: on each arrival, ADD to the
// sketch, then admit the item to the top-l heap if its ESTIMATE exceeds
// the current minimum. The heap is the package's counter store, each
// counter holding an item's estimate at its last admission.
//
// With capacity l ≥ k/(1−ε)^(1/z) (Zipf parameter z), the true top-k items
// are all tracked with high probability (paper §4.1).
type Tracked struct {
	inner    core.Summary
	capacity int
	st       ssStorage
}

// NewTracked wraps inner with a top-capacity item tracker.
func NewTracked(inner core.Summary, capacity int) *Tracked {
	if capacity <= 0 {
		panic("counters: Tracked requires positive capacity")
	}
	return &Tracked{inner: inner, capacity: capacity, st: newSSStorage(capacity)}
}

// Name reports the inner sketch's name: in the paper's plots the
// sketch+heap combination carries the sketch's label.
func (t *Tracked) Name() string { return t.inner.Name() }

// Inner exposes the wrapped summary.
func (t *Tracked) Inner() core.Summary { return t.inner }

// N implements core.Summary.
func (t *Tracked) N() int64 { return t.inner.N() }

// Update adds the arrival to the sketch and maintains the heap.
func (t *Tracked) Update(x core.Item, count int64) {
	t.inner.Update(x, count)
	t.admit(x, t.inner.Estimate(x))
}

// admit offers (x, est) to the top-capacity heap, the §3.2 maintenance
// step shared by the scalar and batched ingest paths.
func (t *Tracked) admit(x core.Item, est int64) {
	if id := t.st.lookup(x); id >= 0 {
		t.st.add(id, est-t.st.nodes[id].count)
		return
	}
	if len(t.st.heap) < t.capacity {
		t.st.room(t.capacity)
		t.st.push(x, est, 0)
		return
	}
	if est > t.st.hcnt[0] {
		t.st.replaceMin(x, est, 0)
	}
}

// UpdateBatch implements core.BatchUpdater. When the inner sketch
// certifies monotone estimates (Count-Min under insert-only arrivals),
// the batch is collapsed once (core.Collapse) and each distinct item is
// offered to the heap once, in first-appearance order, at its
// post-batch estimate: a batch-end admission sees every item at an
// estimate at least as high as any mid-batch arrival would have (this
// is where monotonicity is load-bearing), and heavy items are
// re-offered on every batch in which they appear, so only the
// sub-threshold tail of the tracked heap can differ from scalar replay.
// Query re-estimates tracked items against the sketch, so reports above
// the operating threshold match the scalar path (pinned by the
// registry-wide equivalence test). A linear inner (core.PairUpdater)
// takes the collapsed pairs through its pair path, so the batch is
// aggregated once. A conservative Count-Min is monotone but not linear
// — each arrival's write depends on the estimate at that arrival — so
// it ingests the batch through its own per-arrival batch path first,
// and its counters match scalar replay exactly.
//
// Non-monotone estimators (Count Sketch: a median of signed counters
// that other items' arrivals can lower) get the exact per-arrival path
// — deferring their admissions could miss an item whose estimate was
// transiently above the heap minimum mid-batch.
func (t *Tracked) UpdateBatch(items []core.Item) {
	m, monotone := t.inner.(core.EstimateMonotone)
	if !monotone || !m.MonotoneEstimates() {
		for _, x := range items {
			t.Update(x, 1)
		}
		return
	}
	p, ok := t.inner.(core.PairUpdater)
	if !ok || !p.Linear() {
		core.UpdateAll(t.inner, items)
		p = nil
	}
	core.Collapse(items, func(items []core.Item, counts []int64) {
		if p != nil {
			p.UpdatePairs(items, counts)
		}
		for _, x := range items {
			t.admit(x, t.inner.Estimate(x))
		}
	})
}

// Estimate returns the sketch's point estimate.
func (t *Tracked) Estimate(x core.Item) int64 { return t.inner.Estimate(x) }

// Clone returns an independent deep copy: the inner sketch is cloned via
// its own Snapshotter implementation and the heap is copied as it
// stands. It panics when the inner sketch does not implement
// core.Snapshotter itself.
func (t *Tracked) Clone() *Tracked {
	inner := t.inner.(core.Snapshotter).Snapshot()
	return &Tracked{inner: inner, capacity: t.capacity, st: t.st.clone()}
}

// Snapshot implements core.Snapshotter.
func (t *Tracked) Snapshot() core.Summary { return t.Clone() }

// Query re-estimates every tracked item against the current sketch state
// and returns those at or above threshold, descending.
func (t *Tracked) Query(threshold int64) []core.ItemCount {
	var out []core.ItemCount
	for _, id := range t.st.heap {
		x := t.st.nodes[id].item
		if est := t.inner.Estimate(x); est >= threshold {
			out = append(out, core.ItemCount{Item: x, Count: est})
		}
	}
	core.SortByCountDesc(out)
	return out
}

// TopK returns the k highest-estimate tracked items.
func (t *Tracked) TopK(k int) []core.ItemCount {
	all := t.Query(0)
	// Query(0) keeps non-negative estimates; include everything tracked.
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Bytes adds the roster's store to the sketch's footprint.
func (t *Tracked) Bytes() int { return t.inner.Bytes() + t.st.bytes() }

// Merge merges the inner sketches and re-selects tracked items from the
// union of both heaps under the merged sketch's estimates.
func (t *Tracked) Merge(other core.Summary) error {
	o, ok := other.(*Tracked)
	if !ok {
		return core.Incompatible("Tracked: cannot merge %T", other)
	}
	m, ok := t.inner.(core.Merger)
	if !ok {
		return core.Incompatible("Tracked: inner %s is not mergeable", t.inner.Name())
	}
	if err := m.Merge(o.inner); err != nil {
		return err
	}
	candidates := make([]core.ItemCount, 0, len(t.st.nodes)+len(o.st.nodes))
	for _, nd := range t.st.nodes {
		candidates = append(candidates, core.ItemCount{Item: nd.item, Count: t.inner.Estimate(nd.item)})
	}
	for _, nd := range o.st.nodes {
		if t.st.lookup(nd.item) < 0 {
			candidates = append(candidates, core.ItemCount{Item: nd.item, Count: t.inner.Estimate(nd.item)})
		}
	}
	core.SortByCountDesc(candidates)
	if len(candidates) > t.capacity {
		candidates = candidates[:t.capacity]
	}
	t.st.reset()
	for _, ic := range candidates {
		t.st.room(t.capacity)
		t.st.push(ic.Item, ic.Count, 0)
	}
	return nil
}
