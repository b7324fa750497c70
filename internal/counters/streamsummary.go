package counters

import "streamfreq/internal/core"

// SpaceSavingList implements Space-Saving over the Stream-Summary data
// structure of Metwally et al. — the "SSL" variant of the paper.
//
// The Stream-Summary is a doubly-linked list of *buckets*, one per
// distinct count value, in increasing count order; each bucket holds a
// doubly-linked list of the entries sharing that count. A unit update
// moves an entry to the adjacent bucket, which is O(1) — no heap
// rebalancing — at the cost of two links per entry and a bucket per
// distinct count. The algorithm and its guarantees are identical to
// SpaceSavingHeap; only the organizing structure differs, which is
// exactly the SSH/SSL comparison the paper measures.
//
// The entries are the nodes of the package's counter store (store.go),
// found through its one index, each node's pos naming its bucket. The
// links are int32 ids in flat arrays: an entry's neighbours within its
// bucket, and a bucket's count, first entry and neighbours, with
// emptied buckets chained on a free list. So an update allocates
// nothing and the structure holds no pointer.
type SpaceSavingList struct {
	k       int
	n       int64
	t       nodeTable    // the entries; a node's pos is its bucket
	links   []listLink   // by node id
	buckets []listBucket // by bucket id
	min     int32        // the smallest-count bucket, −1 while empty
	free    int32        // the first free bucket, chained through next
}

// listLink is an entry's place in its bucket, head first; −1 ends it.
type listLink struct{ prev, next int32 }

// listBucket is one count: its entries from head, and its neighbours in
// increasing count order; −1 ends either list.
type listBucket struct {
	count            int64
	head, prev, next int32
}

// A Stream-Summary slot's footprint beyond its node: its links, and a
// bucket (24 bytes with padding), since each of k entries may hold a
// count of its own.
const listSlotBytes = 8 + 24

// NewSpaceSavingList returns an SSL summary with k counters.
func NewSpaceSavingList(k int) *SpaceSavingList {
	if k <= 0 {
		panic("counters: SpaceSaving requires k > 0")
	}
	return newSpaceSavingList(k, k)
}

// newSpaceSavingList returns an empty summary with budget k and room
// for capacity entries.
func newSpaceSavingList(k, capacity int) *SpaceSavingList {
	return &SpaceSavingList{
		k:       k,
		t:       newNodeTable(capacity),
		links:   make([]listLink, 0, capacity),
		buckets: make([]listBucket, 0, capacity),
		min:     -1,
		free:    -1,
	}
}

// Name implements core.Summary.
func (s *SpaceSavingList) Name() string { return "SSL" }

// N implements core.Summary.
func (s *SpaceSavingList) N() int64 { return s.n }

// Min returns the smallest tracked count (0 while slots remain).
func (s *SpaceSavingList) Min() int64 {
	if len(s.t.nodes) < s.k {
		return 0
	}
	return s.buckets[s.min].count
}

// detach unlinks entry id from its bucket, freeing the bucket if it
// empties, and returns the bucket an upward search restarts from: the
// entry's bucket if it survives, else the one below it (−1: the
// minimum).
func (s *SpaceSavingList) detach(id int32) int32 {
	lk, b := s.links[id], s.t.nodes[id].pos
	bk := &s.buckets[b]
	if lk.prev >= 0 {
		s.links[lk.prev].next = lk.next
	} else {
		bk.head = lk.next
	}
	if lk.next >= 0 {
		s.links[lk.next].prev = lk.prev
	}
	if bk.head >= 0 {
		return b
	}
	if bk.prev >= 0 {
		s.buckets[bk.prev].next = bk.next
	} else {
		s.min = bk.next
	}
	if bk.next >= 0 {
		s.buckets[bk.next].prev = bk.prev
	}
	below := bk.prev
	bk.next, s.free = s.free, b
	return below
}

// attach puts entry id at the head of the bucket counting c, opening
// that bucket if none does, searching upward from the bucket after
// "after" (−1: from the minimum).
func (s *SpaceSavingList) attach(id int32, c int64, after int32) {
	prev, cur := after, s.min
	if after >= 0 {
		cur = s.buckets[after].next
	}
	for cur >= 0 && s.buckets[cur].count < c {
		prev, cur = cur, s.buckets[cur].next
	}
	b := cur
	if cur < 0 || s.buckets[cur].count != c {
		nb := listBucket{count: c, head: -1, prev: prev, next: cur}
		if b = s.free; b >= 0 {
			s.free = s.buckets[b].next
			s.buckets[b] = nb
		} else {
			b = int32(len(s.buckets))
			s.buckets = append(s.buckets, nb)
		}
		if prev >= 0 {
			s.buckets[prev].next = b
		} else {
			s.min = b
		}
		if cur >= 0 {
			s.buckets[cur].prev = b
		}
	}
	bk := &s.buckets[b]
	s.links[id] = listLink{prev: -1, next: bk.head}
	if bk.head >= 0 {
		s.links[bk.head].prev = id
	}
	bk.head = id
	s.t.nodes[id].count, s.t.nodes[id].pos = c, b
}

// raise moves entry id up to count c. An entry alone in its bucket,
// with no bucket between it and c, keeps the bucket and recounts it —
// the structure a detach and attach would build.
func (s *SpaceSavingList) raise(id int32, c int64) {
	b := s.t.nodes[id].pos
	bk := &s.buckets[b]
	if lk := s.links[id]; lk.prev < 0 && lk.next < 0 && (bk.next < 0 || s.buckets[bk.next].count > c) {
		bk.count, s.t.nodes[id].count = c, c
		return
	}
	s.attach(id, c, s.detach(id))
}

// Update processes count arrivals of x. count must be positive.
func (s *SpaceSavingList) Update(x core.Item, count int64) {
	mustPositive("SpaceSaving", count)
	s.n += count

	if id := s.t.lookup(x); id >= 0 {
		s.raise(id, s.t.nodes[id].count+count)
		return
	}
	if len(s.t.nodes) < s.k {
		s.room()
		id := s.t.newNode(x, 0, 0, -1)
		s.links = append(s.links, listLink{})
		s.attach(id, count, -1)
		return
	}
	// Replace the head of the minimum bucket: x inherits its count as
	// error.
	id := s.buckets[s.min].head
	min := s.t.nodes[id].count
	s.t.retrack(id, x, min, min)
	s.raise(id, min+count)
}

// room grows a decoded summary, sized to the entries its blob carried,
// to its whole budget in one step when it fills.
func (s *SpaceSavingList) room() {
	if len(s.t.nodes) == cap(s.t.nodes) {
		s.t.grow(s.k)
		s.links = resized(s.links, s.k)
		s.buckets = resized(s.buckets, s.k)
	}
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
	if id := s.t.lookup(x); id >= 0 {
		return s.t.nodes[id].count
	}
	return s.Min()
}

// GuaranteedCount returns the certified lower bound on x's true count.
func (s *SpaceSavingList) GuaranteedCount(x core.Item) int64 {
	if id := s.t.lookup(x); id >= 0 {
		nd := &s.t.nodes[id]
		return nd.count - nd.err
	}
	return 0
}

// Query returns tracked items with estimate ≥ threshold, descending.
// The bucket list is already count-ordered, so the scan starts from the
// largest bucket and stops at the threshold.
func (s *SpaceSavingList) Query(threshold int64) []core.ItemCount {
	tail := s.min
	for tail >= 0 && s.buckets[tail].next >= 0 {
		tail = s.buckets[tail].next
	}
	var out []core.ItemCount
	for b := tail; b >= 0 && s.buckets[b].count >= threshold; b = s.buckets[b].prev {
		for e := s.buckets[b].head; e >= 0; e = s.links[e].next {
			out = append(out, core.ItemCount{Item: s.t.nodes[e].item, Count: s.buckets[b].count})
		}
	}
	core.SortByCountDesc(out) // normalize within-bucket order
	return out
}

// Clone returns an independent deep copy: the node table and the link
// arrays are copied as they stand, at the same capacities, so the clone
// is structurally identical and answers every query exactly as its
// source does at the moment of the clone.
func (s *SpaceSavingList) Clone() *SpaceSavingList {
	ns := *s
	ns.t = s.t.clone()
	ns.links = resized(s.links, cap(s.links))
	ns.buckets = resized(s.buckets, cap(s.buckets))
	return &ns
}

// Snapshot implements core.Snapshotter.
func (s *SpaceSavingList) Snapshot() core.Summary { return s.Clone() }

// Bytes implements core.Summary: the node table's footprint plus the
// links and buckets, all at their capacities. Batch pre-aggregation
// scratch is pooled across summaries (see batch.go) and not charged per
// instance.
func (s *SpaceSavingList) Bytes() int { return s.t.bytes() + listSlotBytes*cap(s.links) }

// Merge combines another Stream-Summary Space-Saving into this one
// through mergeSpaceSaving, the merge SpaceSavingHeap makes. The
// survivors are linked smallest first, each at the head of the top
// bucket or in a new bucket above it, so no search walks the list.
func (s *SpaceSavingList) Merge(other core.Summary) error {
	o, ok := other.(*SpaceSavingList)
	if !ok {
		return core.Incompatible("SpaceSaving: cannot merge %T", other)
	}
	if o.k != s.k {
		return core.Incompatible("SpaceSaving: counter budget mismatch (k=%d/%d)", s.k, o.k)
	}
	all := mergeSpaceSaving(&s.t, &o.t, s.Min(), o.Min(), s.k)
	s.t.reset()
	s.links, s.buckets, s.min, s.free = s.links[:0], s.buckets[:0], -1, -1
	below := int32(-1) // the bucket under the top one
	for i := len(all) - 1; i >= 0; i-- {
		s.room()
		id := s.t.newNode(all[i].item, 0, all[i].err, -1)
		s.links = append(s.links, listLink{})
		s.attach(id, all[i].count, below)
		below = s.buckets[s.t.nodes[id].pos].prev
	}
	s.n += o.n
	return nil
}

// validate checks structural invariants — the node table's, bucket
// counts strictly increasing, every link mirrored, every entry in the
// bucket its pos names at the bucket's count, and every bucket slot
// either live or free; used only by tests.
func (s *SpaceSavingList) validate() bool {
	if !s.t.validate() || len(s.links) != len(s.t.nodes) ||
		cap(s.links) != cap(s.t.nodes) || cap(s.buckets) != cap(s.t.nodes) {
		return false
	}
	entries, live := 0, 0
	prev := int32(-1)
	for b := s.min; b >= 0; b = s.buckets[b].next {
		bk := &s.buckets[b]
		if live++; live > len(s.buckets) || bk.prev != prev || bk.head < 0 ||
			(prev >= 0 && s.buckets[prev].count >= bk.count) {
			return false
		}
		before := int32(-1)
		for e := bk.head; e >= 0; e = s.links[e].next {
			if entries++; entries > len(s.t.nodes) || s.links[e].prev != before ||
				s.t.nodes[e].pos != b || s.t.nodes[e].count != bk.count {
				return false
			}
			before = e
		}
		prev = b
	}
	free := 0
	for b := s.free; b >= 0 && free <= len(s.buckets); b = s.buckets[b].next {
		free++
	}
	return entries == len(s.t.nodes) && live+free == len(s.buckets)
}
