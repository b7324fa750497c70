package counters

import (
	"sort"

	"streamfreq/internal/core"
)

// SpaceSavingHeap implements the Space-Saving algorithm of Metwally,
// Agrawal & El Abbadi with a min-heap over the counters — the "SSH"
// variant of the paper.
//
// Space-Saving keeps exactly k counters. A new item that does not fit
// *replaces* the minimum counter, inheriting its count (plus the new
// arrival) and recording the inherited count as the entry's maximum
// possible error. Invariants, with min = smallest tracked count:
//
//	true(x) ≤ Estimate(x) ≤ true(x) + min     for tracked x
//	true(x) ≤ min                             for untracked x
//
// so every item with true count > n/k is tracked, and with k = ⌈1/ε⌉
// counters Space-Saving solves the ε-approximate problem with perfect
// recall and counts overestimated by at most εn.
//
// Its counters live in the package's one counter store (store.go): a
// pointer-free node slice, an int32 id heap and an open-addressed
// index, three slice headers over flat memory, cheap enough to hold
// thousands of tenants resident.
type SpaceSavingHeap struct {
	k  int
	n  int64
	st ssStorage
}

// NewSpaceSavingHeap returns an SSH summary with k counters, its whole
// budget allocated.
func NewSpaceSavingHeap(k int) *SpaceSavingHeap {
	if k <= 0 {
		panic("counters: SpaceSaving requires k > 0")
	}
	return &SpaceSavingHeap{k: k, st: newSSStorage(k)}
}

// Name implements core.Summary.
func (s *SpaceSavingHeap) Name() string { return "SSH" }

// K returns the counter budget.
func (s *SpaceSavingHeap) K() int { return s.k }

// N implements core.Summary.
func (s *SpaceSavingHeap) N() int64 { return s.n }

// Min returns the smallest tracked count (0 while slots remain), which
// bounds the count of every untracked item.
func (s *SpaceSavingHeap) Min() int64 {
	if len(s.st.heap) < s.k {
		return 0
	}
	return s.st.hcnt[0]
}

// Update processes count arrivals of x. count must be positive.
func (s *SpaceSavingHeap) Update(x core.Item, count int64) {
	mustPositive("SpaceSaving", count)
	s.n += count

	if id := s.st.lookup(x); id >= 0 {
		s.st.add(id, count)
		return
	}
	if len(s.st.heap) < s.k {
		s.st.room(s.k)
		s.st.push(x, count, 0)
		return
	}
	// Replace the minimum counter: x inherits its count as error.
	min := s.st.hcnt[0]
	s.st.replaceMin(x, min+count, min)
}

// UpdateBatch implements core.BatchUpdater for unit-count arrivals: the
// batch is pre-aggregated and the merged counts bulk-applied in
// first-appearance order, so each distinct item pays one index lookup
// and one heap sift per batch instead of one per arrival. The
// Space-Saving invariants (no underestimates; per-entry err bounds the
// inherited overcount; every item above n/k tracked) hold for the
// aggregated replay exactly as for the scalar one, since a weighted
// update is the unit rule applied with the arrivals adjacent.
func (s *SpaceSavingHeap) UpdateBatch(items []core.Item) {
	core.Collapse(items, func(items []core.Item, counts []int64) {
		for i, x := range items {
			s.Update(x, counts[i])
		}
	})
}

// Estimate returns the (over-)estimate for tracked items and the global
// minimum counter for untracked items, the tightest upper bound
// Space-Saving can certify.
func (s *SpaceSavingHeap) Estimate(x core.Item) int64 {
	if id := s.st.lookup(x); id >= 0 {
		return s.st.nodes[id].count
	}
	return s.Min()
}

// GuaranteedCount returns a certified lower bound on x's true count
// (count − err for tracked items, 0 otherwise).
func (s *SpaceSavingHeap) GuaranteedCount(x core.Item) int64 {
	if id := s.st.lookup(x); id >= 0 {
		nd := &s.st.nodes[id]
		return nd.count - nd.err
	}
	return 0
}

// Query returns the tracked items with estimate ≥ threshold in
// descending order. Because Space-Saving never underestimates, this has
// perfect recall at any threshold > n/k.
func (s *SpaceSavingHeap) Query(threshold int64) []core.ItemCount { return s.st.query(threshold) }

// Clone returns an independent deep copy: the flat storage is copied
// wholesale (same heap arrangement, same index layout, same
// capacities, so the clone's Bytes is the source's).
func (s *SpaceSavingHeap) Clone() *SpaceSavingHeap {
	return &SpaceSavingHeap{k: s.k, n: s.n, st: s.st.clone()}
}

// Snapshot implements core.Snapshotter.
func (s *SpaceSavingHeap) Snapshot() core.Summary { return s.Clone() }

// Bytes implements core.Summary: the counter store's footprint. Batch
// pre-aggregation scratch is pooled across summaries (see batch.go)
// and not charged per instance.
func (s *SpaceSavingHeap) Bytes() int { return s.st.bytes() }

// Merge combines another Space-Saving summary into this one (see
// mergeSpaceSaving); the survivors are pushed largest first.
func (s *SpaceSavingHeap) Merge(other core.Summary) error {
	o, ok := other.(*SpaceSavingHeap)
	if !ok {
		return core.Incompatible("SpaceSaving: cannot merge %T", other)
	}
	if o.k != s.k {
		// Different k means different provisioning (φ): folding the
		// smaller-k side in would silently widen the error bound past
		// what either summary advertises.
		return core.Incompatible("SpaceSaving: counter budget mismatch (k=%d/%d)", s.k, o.k)
	}
	all := mergeSpaceSaving(&s.st.nodeTable, &o.st.nodeTable, s.Min(), o.Min(), s.k)
	s.st.reset()
	for _, nd := range all {
		s.st.room(s.k)
		s.st.push(nd.item, nd.count, nd.err)
	}
	s.n += o.n
	return nil
}

// mergeSpaceSaving is the merge both Space-Saving organizations share,
// the mergeable-summaries construction: counters for the same item sum
// (errors likewise); a counter on one side only is inflated by the
// other side's Min() bound (added to both count and err); and the k
// largest survive, returned in descending count order with ties broken
// by ascending item (core.SortByCountDesc's order). The result
// satisfies the Space-Saving invariants for the concatenated stream.
func mergeSpaceSaving(a, b *nodeTable, aMin, bMin int64, k int) []ssNode {
	all := make([]ssNode, 0, len(a.nodes)+len(b.nodes))
	for _, nd := range a.nodes {
		if id := b.lookup(nd.item); id >= 0 {
			nd.count += b.nodes[id].count
			nd.err += b.nodes[id].err
		} else {
			nd.count += bMin
			nd.err += bMin
		}
		all = append(all, nd)
	}
	for _, nd := range b.nodes {
		if a.lookup(nd.item) < 0 {
			nd.count += aMin
			nd.err += aMin
			all = append(all, nd)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].item < all[j].item
	})
	return all[:min(len(all), k)]
}

// validate checks the structural invariants; used only by tests.
func (s *SpaceSavingHeap) validate() bool { return s.st.validateStorage() }
