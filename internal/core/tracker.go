package core

// Tracked wraps a point-estimate summary (typically a flat Count Sketch
// or Count-Min sketch, which cannot enumerate items) and maintains a heap
// of the highest-estimate items seen so far — exactly the algorithm of
// Charikar, Chen & Farach-Colton §3.2: on each arrival, ADD to the
// sketch, then admit the item to the top-l heap if its ESTIMATE exceeds
// the current minimum.
//
// With capacity l ≥ k/(1−ε)^(1/z) (Zipf parameter z), the true top-k items
// are all tracked with high probability (paper §4.1).
type Tracked struct {
	inner    Summary
	capacity int
	index    map[Item]*tkEntry
	heap     tkHeap
}

type tkEntry struct {
	item Item
	est  int64
	idx  int
}

// NewTracked wraps inner with a top-capacity item tracker.
func NewTracked(inner Summary, capacity int) *Tracked {
	if capacity <= 0 {
		panic("core: Tracked requires positive capacity")
	}
	return &Tracked{
		inner:    inner,
		capacity: capacity,
		index:    make(map[Item]*tkEntry, capacity),
	}
}

// Name reports the inner sketch's name: in the paper's plots the
// sketch+heap combination carries the sketch's label.
func (t *Tracked) Name() string { return t.inner.Name() }

// Inner exposes the wrapped summary.
func (t *Tracked) Inner() Summary { return t.inner }

// N implements Summary.
func (t *Tracked) N() int64 { return t.inner.N() }

// Update adds the arrival to the sketch and maintains the heap.
func (t *Tracked) Update(x Item, count int64) {
	t.inner.Update(x, count)
	t.admit(x, t.inner.Estimate(x))
}

// admit offers (x, est) to the top-capacity heap, the §3.2 maintenance
// step shared by the scalar and batched ingest paths.
func (t *Tracked) admit(x Item, est int64) {
	if e, ok := t.index[x]; ok {
		e.est = est
		t.heap.fix(e.idx)
		return
	}
	if len(t.heap) < t.capacity {
		e := &tkEntry{item: x, est: est}
		t.index[x] = e
		t.heap.push(e)
		return
	}
	if min := t.heap[0]; est > min.est {
		delete(t.index, min.item)
		min.item = x
		min.est = est
		t.index[x] = min
		t.heap.fix(0)
	}
}

// UpdateBatch implements BatchUpdater. When the inner sketch certifies
// monotone estimates (Count-Min under insert-only arrivals), the batch
// is collapsed once (Collapse) and each distinct item is offered to the
// heap once, in first-appearance order, at its post-batch estimate: a
// batch-end admission sees every item at an estimate at least as high as
// any mid-batch arrival would have (this is where monotonicity is
// load-bearing), and heavy items are re-offered on every batch in which
// they appear, so only the sub-threshold tail of the tracked heap can
// differ from scalar replay. Query re-estimates tracked items against
// the sketch, so reports above the operating threshold match the scalar
// path (pinned by the registry-wide equivalence test). A linear inner
// (PairUpdater) takes the collapsed pairs through its pair path, so the
// batch is aggregated once. A conservative Count-Min is monotone but not
// linear — each arrival's write depends on the estimate at that arrival
// — so it ingests the batch through its own per-arrival batch path
// first, and its counters match scalar replay exactly.
//
// Non-monotone estimators (Count Sketch: a median of signed counters
// that other items' arrivals can lower) get the exact per-arrival path
// — deferring their admissions could miss an item whose estimate was
// transiently above the heap minimum mid-batch.
func (t *Tracked) UpdateBatch(items []Item) {
	m, monotone := t.inner.(EstimateMonotone)
	if !monotone || !m.MonotoneEstimates() {
		for _, x := range items {
			t.Update(x, 1)
		}
		return
	}
	p, ok := t.inner.(PairUpdater)
	if !ok || !p.Linear() {
		UpdateAll(t.inner, items)
		p = nil
	}
	Collapse(items, func(items []Item, counts []int64) {
		if p != nil {
			p.UpdatePairs(items, counts)
		}
		for _, x := range items {
			t.admit(x, t.inner.Estimate(x))
		}
	})
}

// Estimate returns the sketch's point estimate.
func (t *Tracked) Estimate(x Item) int64 { return t.inner.Estimate(x) }

// Clone returns an independent deep copy: the inner sketch is cloned via
// its own Snapshotter implementation and the heap entries are copied at
// their positions.
func (t *Tracked) Clone() *Tracked {
	nt := &Tracked{
		inner:    mustSnapshot(t.inner),
		capacity: t.capacity,
		index:    make(map[Item]*tkEntry, len(t.index)),
		heap:     make(tkHeap, len(t.heap)),
	}
	for i, e := range t.heap {
		ne := &tkEntry{item: e.item, est: e.est, idx: e.idx}
		nt.heap[i] = ne
		nt.index[ne.item] = ne
	}
	return nt
}

// Snapshot implements Snapshotter. It panics when the inner sketch does
// not implement Snapshotter itself.
func (t *Tracked) Snapshot() Summary { return t.Clone() }

// Query re-estimates every tracked item against the current sketch state
// and returns those at or above threshold, descending.
func (t *Tracked) Query(threshold int64) []ItemCount {
	var out []ItemCount
	for _, e := range t.heap {
		est := t.inner.Estimate(e.item)
		if est >= threshold {
			out = append(out, ItemCount{Item: e.item, Count: est})
		}
	}
	SortByCountDesc(out)
	return out
}

// TopK returns the k highest-estimate tracked items.
func (t *Tracked) TopK(k int) []ItemCount {
	all := t.Query(0)
	// Query(0) keeps non-negative estimates; include everything tracked.
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Bytes adds the heap footprint to the sketch's.
func (t *Tracked) Bytes() int {
	const entry = 2 * (8 + 8 + 8)
	return t.inner.Bytes() + entry*t.capacity
}

// Merge merges the inner sketches and re-selects tracked items from the
// union of both heaps under the merged sketch's estimates.
func (t *Tracked) Merge(other Summary) error {
	o, ok := other.(*Tracked)
	if !ok {
		return Incompatible("Tracked: cannot merge %T", other)
	}
	m, ok := t.inner.(Merger)
	if !ok {
		return Incompatible("Tracked: inner %s is not mergeable", t.inner.Name())
	}
	if err := m.Merge(o.inner); err != nil {
		return err
	}
	union := make(map[Item]struct{}, len(t.index)+len(o.index))
	for it := range t.index {
		union[it] = struct{}{}
	}
	for it := range o.index {
		union[it] = struct{}{}
	}
	candidates := make([]ItemCount, 0, len(union))
	for it := range union {
		candidates = append(candidates, ItemCount{Item: it, Count: t.inner.Estimate(it)})
	}
	SortByCountDesc(candidates)
	if len(candidates) > t.capacity {
		candidates = candidates[:t.capacity]
	}
	t.index = make(map[Item]*tkEntry, t.capacity)
	t.heap = t.heap[:0]
	for _, ic := range candidates {
		e := &tkEntry{item: ic.Item, est: ic.Count}
		t.index[ic.Item] = e
		t.heap.push(e)
	}
	return nil
}

// tkHeap is an indexed min-heap over tracked estimates.
type tkHeap []*tkEntry

func (h tkHeap) less(i, j int) bool { return h[i].est < h[j].est }

func (h tkHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *tkHeap) push(e *tkEntry) {
	e.idx = len(*h)
	*h = append(*h, e)
	h.up(e.idx)
}

func (h tkHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h tkHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h tkHeap) down(i int) bool {
	start := i
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && h.less(r, l) {
			small = r
		}
		if !h.less(small, i) {
			break
		}
		h.swap(i, small)
		i = small
	}
	return i != start
}
