package counters

import (
	"sort"

	"streamfreq/internal/core"
)

// SpaceSavingList implements Space-Saving over the Stream-Summary data
// structure of Metwally et al. — the "SSL" variant of the paper.
//
// The Stream-Summary is a doubly-linked list of *buckets*, one per
// distinct count value, in increasing count order; each bucket holds a
// doubly-linked list of the entries sharing that count. A unit update
// moves an entry to the adjacent bucket, which is O(1) — no heap
// rebalancing — at the cost of two extra pointers per entry and per
// bucket. The algorithm and its guarantees are identical to
// SpaceSavingHeap; only the organizing structure differs, which is
// exactly the SSH/SSL comparison the paper measures.
type SpaceSavingList struct {
	k     int
	index map[core.Item]*ssEntry
	min   *ssBucket // bucket with the smallest count (head of list)
	size  int
	n     int64
}

type ssBucket struct {
	count      int64
	head       *ssEntry // entries in this bucket (unordered)
	prev, next *ssBucket
}

type ssEntry struct {
	item       core.Item
	err        int64
	bucket     *ssBucket
	prev, next *ssEntry // neighbors within the bucket
}

// NewSpaceSavingList returns an SSL summary with k counters.
func NewSpaceSavingList(k int) *SpaceSavingList {
	if k <= 0 {
		panic("counters: SpaceSaving requires k > 0")
	}
	return &SpaceSavingList{k: k, index: make(map[core.Item]*ssEntry, k)}
}

// Name implements core.Summary.
func (s *SpaceSavingList) Name() string { return "SSL" }

// K returns the counter budget.
func (s *SpaceSavingList) K() int { return s.k }

// N implements core.Summary.
func (s *SpaceSavingList) N() int64 { return s.n }

// Min returns the smallest tracked count (0 while slots remain).
func (s *SpaceSavingList) Min() int64 {
	if s.size < s.k || s.min == nil {
		return 0
	}
	return s.min.count
}

// detach unlinks e from its bucket, removing the bucket if it empties.
func (s *SpaceSavingList) detach(e *ssEntry) {
	b := e.bucket
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		b.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.prev, e.next, e.bucket = nil, nil, nil
	if b.head == nil {
		// Unlink the empty bucket.
		if b.prev != nil {
			b.prev.next = b.next
		} else {
			s.min = b.next
		}
		if b.next != nil {
			b.next.prev = b.prev
		}
	}
}

// attach inserts e into a bucket with the given count, searching forward
// from position "after" (which may be nil to start at the minimum).
func (s *SpaceSavingList) attach(e *ssEntry, count int64, after *ssBucket) {
	// Find the bucket with count ≥ count, walking forward.
	var prev *ssBucket
	cur := s.min
	if after != nil {
		prev, cur = after, after.next
	}
	for cur != nil && cur.count < count {
		prev, cur = cur, cur.next
	}
	var b *ssBucket
	if cur != nil && cur.count == count {
		b = cur
	} else {
		b = &ssBucket{count: count, prev: prev, next: cur}
		if prev != nil {
			prev.next = b
		} else {
			s.min = b
		}
		if cur != nil {
			cur.prev = b
		}
	}
	e.bucket = b
	e.next = b.head
	if b.head != nil {
		b.head.prev = e
	}
	b.head = e
	e.prev = nil
}

// Update processes count arrivals of x. count must be positive.
func (s *SpaceSavingList) Update(x core.Item, count int64) {
	mustPositive("SpaceSaving", count)
	s.n += count

	if e, ok := s.index[x]; ok {
		b := e.bucket
		newCount := b.count + count
		// Buckets at or before b are unaffected; search forward from b.
		s.detach(e)
		// detach may have removed b; recompute the search start.
		start := b.prev
		if b.head == nil && start == nil {
			start = nil // bucket list restarts at s.min
		} else if b.head != nil {
			start = b
		}
		s.attach(e, newCount, start)
		return
	}
	if s.size < s.k {
		e := &ssEntry{item: x}
		s.index[x] = e
		s.attach(e, count, nil)
		s.size++
		return
	}
	// Replace an entry in the minimum bucket.
	b := s.min
	e := b.head
	delete(s.index, e.item)
	e.err = b.count
	e.item = x
	newCount := b.count + count
	s.detach(e)
	var start *ssBucket
	if b.head != nil {
		start = b
	}
	s.attach(e, newCount, start)
	s.index[x] = e
}

// UpdateBatch implements core.BatchUpdater for unit-count arrivals,
// mirroring SpaceSavingHeap.UpdateBatch: pre-aggregate, then bulk-apply
// merged counts in first-appearance order. For the Stream-Summary
// structure the amortization shows up as one bucket relink per distinct
// item per batch — and a weighted relink skips the intermediate buckets
// a unit-at-a-time walk would have created and destroyed.
func (s *SpaceSavingList) UpdateBatch(items []core.Item) {
	core.Collapse(items, func(items []core.Item, counts []int64) {
		for i, x := range items {
			s.Update(x, counts[i])
		}
	})
}

// Estimate mirrors SpaceSavingHeap.Estimate.
func (s *SpaceSavingList) Estimate(x core.Item) int64 {
	if e, ok := s.index[x]; ok {
		return e.bucket.count
	}
	return s.Min()
}

// GuaranteedCount returns the certified lower bound on x's true count.
func (s *SpaceSavingList) GuaranteedCount(x core.Item) int64 {
	if e, ok := s.index[x]; ok {
		return e.bucket.count - e.err
	}
	return 0
}

// Query returns tracked items with estimate ≥ threshold, descending.
// The bucket list is already count-ordered, so the scan starts from the
// largest bucket and stops at the threshold.
func (s *SpaceSavingList) Query(threshold int64) []core.ItemCount {
	// Find the tail.
	var tail *ssBucket
	for b := s.min; b != nil; b = b.next {
		tail = b
	}
	var out []core.ItemCount
	for b := tail; b != nil && b.count >= threshold; b = b.prev {
		for e := b.head; e != nil; e = e.next {
			out = append(out, core.ItemCount{Item: e.item, Count: b.count})
		}
	}
	core.SortByCountDesc(out) // normalize within-bucket order
	return out
}

// Entries returns all tracked (item, estimate) pairs in descending order.
func (s *SpaceSavingList) Entries() []core.ItemCount {
	return s.Query(0)
}

// Clone returns an independent deep copy, rebuilding the Stream-Summary
// bucket list in order and preserving within-bucket entry order, so the
// clone is structurally identical (validate-clean) and answers every
// query exactly as the parent does at the moment of the clone.
func (s *SpaceSavingList) Clone() *SpaceSavingList {
	ns := &SpaceSavingList{
		k:     s.k,
		size:  s.size,
		n:     s.n,
		index: make(map[core.Item]*ssEntry, len(s.index)),
	}
	var prevB *ssBucket
	for b := s.min; b != nil; b = b.next {
		nb := &ssBucket{count: b.count, prev: prevB}
		if prevB != nil {
			prevB.next = nb
		} else {
			ns.min = nb
		}
		var prevE *ssEntry
		for e := b.head; e != nil; e = e.next {
			ne := &ssEntry{item: e.item, err: e.err, bucket: nb, prev: prevE}
			if prevE != nil {
				prevE.next = ne
			} else {
				nb.head = ne
			}
			ns.index[ne.item] = ne
			prevE = ne
		}
		prevB = nb
	}
	return ns
}

// Snapshot implements core.Snapshotter.
func (s *SpaceSavingList) Snapshot() core.Summary { return s.Clone() }

// Bytes accounts the entry payload plus the two extra pointers per entry
// and the bucket nodes (charged one per entry, the worst case). Batch
// pre-aggregation scratch is pooled across summaries (see batch.go) and
// not charged per instance.
func (s *SpaceSavingList) Bytes() int {
	const listEntry = 2 * (8 + 8 + 8 + 8 + 8 + 8) // item, err, bucket ptr, 2 links + bucket share
	return listEntry * s.k
}

// Merge combines another Stream-Summary Space-Saving into this one with
// the same mergeable-summaries construction as SpaceSavingHeap.Merge:
// counters for the same item sum (errors likewise), counters present on
// one side only are inflated by the other side's Min() bound, and the k
// largest survive. The bucket list is rebuilt in ascending count order,
// so each attach extends the tail in O(1) and the merged structure is
// validate-clean.
func (s *SpaceSavingList) Merge(other core.Summary) error {
	o, ok := other.(*SpaceSavingList)
	if !ok {
		return core.Incompatible("SpaceSaving: cannot merge %T", other)
	}
	if o.k != s.k {
		return core.Incompatible("SpaceSaving: counter budget mismatch (k=%d/%d)", s.k, o.k)
	}
	type pair struct{ count, err int64 }
	combined := make(map[core.Item]pair, len(s.index)+len(o.index))
	sMin, oMin := s.Min(), o.Min()
	for it, e := range s.index {
		p := pair{e.bucket.count, e.err}
		if oe, ok := o.index[it]; ok {
			p.count += oe.bucket.count
			p.err += oe.err
		} else {
			p.count += oMin
			p.err += oMin
		}
		combined[it] = p
	}
	for it, oe := range o.index {
		if _, done := combined[it]; done {
			continue
		}
		combined[it] = pair{oe.bucket.count + sMin, oe.err + sMin}
	}
	type merged struct {
		item       core.Item
		count, err int64
	}
	all := make([]merged, 0, len(combined))
	for it, p := range combined {
		all = append(all, merged{it, p.count, p.err})
	}
	// Keep the k largest, then rebuild smallest-first so the bucket walk
	// in attach never backtracks. Ties break by item for determinism,
	// matching core.SortByCountDesc.
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].item < all[j].item
	})
	if len(all) > s.k {
		all = all[:s.k]
	}
	s.index = make(map[core.Item]*ssEntry, s.k)
	s.min = nil
	s.size = len(all)
	var last *ssBucket
	for i := len(all) - 1; i >= 0; i-- {
		m := all[i]
		e := &ssEntry{item: m.item, err: m.err}
		if last != nil && last.count == m.count {
			// Same count as the previous entry: link into its bucket
			// directly (attach would search past it).
			e.bucket = last
			e.next = last.head
			last.head.prev = e
			last.head = e
		} else {
			s.attach(e, m.count, last)
			last = e.bucket
		}
		s.index[m.item] = e
	}
	s.n += o.n
	return nil
}

// buckets returns the number of live buckets; used by tests.
func (s *SpaceSavingList) buckets() int {
	c := 0
	for b := s.min; b != nil; b = b.next {
		c++
	}
	return c
}

// validate checks structural invariants; used only by tests. It returns
// false if any linkage, ordering, or index inconsistency is found.
func (s *SpaceSavingList) validate() bool {
	seen := 0
	var prevCount int64 = -1
	for b := s.min; b != nil; b = b.next {
		if b.count <= prevCount {
			return false
		}
		prevCount = b.count
		if b.next != nil && b.next.prev != b {
			return false
		}
		if b.head == nil {
			return false // empty buckets must be unlinked
		}
		for e := b.head; e != nil; e = e.next {
			if e.bucket != b {
				return false
			}
			if e.next != nil && e.next.prev != e {
				return false
			}
			if s.index[e.item] != e {
				return false
			}
			seen++
		}
	}
	return seen == len(s.index) && seen == s.size
}
