package counters

import (
	"streamfreq/internal/core"
	"streamfreq/internal/hash"
)

// FilteredSpaceSaving implements Filtered Space-Saving (Homem & Carvalho,
// 2010), the best-known refinement of Space-Saving and a natural
// "follow-up work" extension to the paper's roster. A hashed *bitmap
// counter* filter sits in front of the monitored set: items that are not
// currently monitored accumulate error in a per-cell counter instead of
// immediately claiming a monitored slot, and an item is promoted only
// when its cell's error bound would exceed the current minimum monitored
// count. The effect is fewer spurious replacements — higher precision at
// equal k, especially on low-skew streams — for one extra hash and a
// small filter array.
//
// Invariants (with αᵢ the filter cell error and min the smallest
// monitored count):
//
//	monitored x:  true(x) ≤ Estimate(x) ≤ true(x) + err(x)
//	unmonitored x: true(x) ≤ α_cell(x)
type FilteredSpaceSaving struct {
	k      int
	filter []int64 // per-cell error bound α
	cells  hash.Bucket
	st     ssStorage // monitored counters; err is the cell error at admission
	n      int64
}

// NewFilteredSpaceSaving returns an FSS summary with k monitored
// counters and a filter of filterCells cells (0 selects 8k, the ratio
// the original paper found effective).
func NewFilteredSpaceSaving(k, filterCells int, seed uint64) *FilteredSpaceSaving {
	if k <= 0 {
		panic("counters: FilteredSpaceSaving requires k > 0")
	}
	if filterCells <= 0 {
		filterCells = 8 * k
	}
	return &FilteredSpaceSaving{
		k:      k,
		filter: make([]int64, filterCells),
		cells:  hash.NewBucket(2, filterCells, seed),
		st:     newSSStorage(k),
	}
}

// Name implements core.Summary.
func (s *FilteredSpaceSaving) Name() string { return "FSS" }

// K returns the monitored-counter budget.
func (s *FilteredSpaceSaving) K() int { return s.k }

// N implements core.Summary.
func (s *FilteredSpaceSaving) N() int64 { return s.n }

// Min returns the smallest monitored count (0 while slots remain).
func (s *FilteredSpaceSaving) Min() int64 {
	if len(s.st.heap) < s.k {
		return 0
	}
	return s.st.hcnt[0]
}

// Update processes count arrivals of x. count must be positive.
func (s *FilteredSpaceSaving) Update(x core.Item, count int64) {
	mustPositive("FilteredSpaceSaving", count)
	s.n += count

	if id := s.st.lookup(x); id >= 0 {
		s.st.add(id, count)
		return
	}
	cell := s.cells.Hash(uint64(x))
	if len(s.st.heap) < s.k {
		// Free slot: monitor immediately, inheriting the cell's error.
		s.st.push(x, s.filter[cell]+count, s.filter[cell])
		return
	}
	min := s.st.hcnt[0]
	if s.filter[cell]+count <= min {
		// Filtered out: the item's upper bound cannot beat the minimum
		// monitored count; absorb the arrival into the cell error.
		s.filter[cell] += count
		return
	}
	// Promote: replace the minimum entry. The evicted item's count flows
	// back into ITS filter cell so the unmonitored bound stays valid.
	evCell := s.cells.Hash(uint64(s.st.nodes[s.st.heap[0]].item))
	if min > s.filter[evCell] {
		s.filter[evCell] = min
	}
	s.st.replaceMin(x, s.filter[cell]+count, s.filter[cell])
}

// Estimate returns the monitored estimate, or the filter-cell bound for
// unmonitored items (both upper bounds on the true count).
func (s *FilteredSpaceSaving) Estimate(x core.Item) int64 {
	if id := s.st.lookup(x); id >= 0 {
		return s.st.nodes[id].count
	}
	return s.filter[s.cells.Hash(uint64(x))]
}

// GuaranteedCount returns the certified lower bound on x's true count.
func (s *FilteredSpaceSaving) GuaranteedCount(x core.Item) int64 {
	if id := s.st.lookup(x); id >= 0 {
		nd := &s.st.nodes[id]
		return nd.count - nd.err
	}
	return 0
}

// Query returns monitored items with estimate ≥ threshold, descending.
func (s *FilteredSpaceSaving) Query(threshold int64) []core.ItemCount { return s.st.query(threshold) }

// Entries returns all monitored (item, estimate) pairs, descending.
func (s *FilteredSpaceSaving) Entries() []core.ItemCount { return s.Query(0) }

// Clone returns an independent deep copy: the filter array and monitored
// entries are duplicated; the filter's hash function is shared (immutable
// after construction).
func (s *FilteredSpaceSaving) Clone() *FilteredSpaceSaving {
	ns := *s
	ns.filter = append([]int64(nil), s.filter...)
	ns.st = s.st.clone()
	return &ns
}

// Snapshot implements core.Snapshotter.
func (s *FilteredSpaceSaving) Snapshot() core.Summary { return s.Clone() }

// Bytes counts the monitored entries' store plus the filter array.
func (s *FilteredSpaceSaving) Bytes() int { return s.st.bytes() + 8*len(s.filter) }
