package counters

import (
	"streamfreq/internal/core"
)

// Frequent implements the Misra–Gries algorithm ("F" in the paper), the
// generalization of the Boyer–Moore majority algorithm to k counters.
//
// Invariant: for every item x, true(x) − n/(k+1) ≤ Estimate(x) ≤ true(x).
// Consequently every item with true count > n/(k+1) is present, which with
// k = ⌈1/ε⌉ counters solves the ε-approximate frequent-items problem with
// perfect recall when queries compensate for the deficit (see Query).
//
// The textbook algorithm decrements *all* counters when a new item
// arrives and no slot is free, which is Θ(k) per eviction. This
// implementation uses the standard offset trick to make updates
// O(log k): a global offset δ is added to all logical counts, so
// "decrement everything by m" is just δ += m followed by evicting entries
// whose stored count has fallen to δ, which sit at the root of the
// counter store's min-heap.
type Frequent struct {
	k      int
	st     ssStorage
	offset int64 // logical count of a counter is its stored count − offset
	n      int64
	decs   int64 // total decrement mass, for diagnostics and tests
}

// NewFrequent returns a Misra–Gries summary with k counters. k must be
// positive.
func NewFrequent(k int) *Frequent {
	if k <= 0 {
		panic("counters: Frequent requires k > 0")
	}
	return &Frequent{k: k, st: newSSStorage(k)}
}

// Name implements core.Summary.
func (f *Frequent) Name() string { return "F" }

// K returns the counter budget.
func (f *Frequent) K() int { return f.k }

// N implements core.Summary.
func (f *Frequent) N() int64 { return f.n }

// Update processes count arrivals of x. count must be positive.
func (f *Frequent) Update(x core.Item, count int64) {
	mustPositive("Frequent", count)
	f.n += count

	if id := f.st.lookup(x); id >= 0 {
		f.st.add(id, count)
		return
	}
	if len(f.st.heap) < f.k {
		f.st.room(f.k)
		f.st.push(x, f.offset+count, 0)
		return
	}
	// All k slots taken: decrement all logical counts by
	// m = min(count, smallest logical count). If the new item's mass
	// survives (count > m), it replaces an evicted zero entry.
	m := min(count, f.st.hcnt[0]-f.offset)
	f.offset += m
	f.decs += m
	// Evict entries whose logical count reached zero.
	for len(f.st.heap) > 0 && f.st.hcnt[0] <= f.offset {
		f.st.popMin()
	}
	if count > m {
		if len(f.st.heap) == f.k {
			// Cannot happen: count > m implies m == minLogical, so the
			// minimum entry hit zero and was evicted.
			panic("counters: Frequent invariant violated (no slot freed)")
		}
		f.st.push(x, f.offset+(count-m), 0)
	}
}

// UpdateBatch implements core.BatchUpdater for unit-count arrivals: the
// batch is pre-aggregated in a scratch table and the merged counts
// applied in first-appearance order, trading per-arrival index lookups
// and heap sifts for one of each per distinct item in the batch. A
// weighted Update(x, c) is equivalent to c consecutive unit updates
// (the min(count, minLogical) decrement rule is the unit rule
// iterated), but aggregation also moves an item's later arrivals to
// its first appearance, which can shift the decrement schedule — so
// individual estimates may differ from the scalar replay by a few
// units, always within the n/(k+1) deficit bound both replays
// guarantee (see querySlack in the root package's batch_test.go).
func (f *Frequent) UpdateBatch(items []core.Item) {
	core.Collapse(items, func(items []core.Item, counts []int64) {
		for i, x := range items {
			f.Update(x, counts[i])
		}
	})
}

// Estimate returns the Misra–Gries lower-bound estimate of x's count
// (0 when x is not tracked). It never overestimates.
func (f *Frequent) Estimate(x core.Item) int64 {
	if id := f.st.lookup(x); id >= 0 {
		return f.st.nodes[id].count - f.offset
	}
	return 0
}

// MaxError returns the maximum amount by which any estimate can fall
// short of the true count: the total decrement mass, itself bounded by
// n/(k+1).
func (f *Frequent) MaxError() int64 { return f.decs }

// Query returns the tracked items whose count *may* reach threshold,
// i.e. Estimate(x) + MaxError() ≥ threshold, in descending estimate
// order. This is the compensation rule that gives Misra–Gries perfect
// recall at threshold φn when k ≥ 1/φ.
func (f *Frequent) Query(threshold int64) []core.ItemCount {
	var out []core.ItemCount
	for _, id := range f.st.heap {
		nd := &f.st.nodes[id]
		est := nd.count - f.offset
		if est+f.decs >= threshold {
			out = append(out, core.ItemCount{Item: nd.item, Count: est})
		}
	}
	core.SortByCountDesc(out)
	return out
}

// Clone returns an independent deep copy (the same heap arrangement in
// standalone storage).
func (f *Frequent) Clone() *Frequent {
	nf := *f
	nf.st = f.st.clone()
	return &nf
}

// Snapshot implements core.Snapshotter.
func (f *Frequent) Snapshot() core.Summary { return f.Clone() }

// Entries returns all tracked (item, estimate) pairs in descending order.
func (f *Frequent) Entries() []core.ItemCount {
	out := make([]core.ItemCount, 0, len(f.st.heap))
	for _, id := range f.st.heap {
		nd := &f.st.nodes[id]
		out = append(out, core.ItemCount{Item: nd.item, Count: nd.count - f.offset})
	}
	core.SortByCountDesc(out)
	return out
}

// Bytes implements core.Summary: the counter store's footprint. Batch
// pre-aggregation scratch is pooled across summaries (see batch.go)
// and not charged per instance.
func (f *Frequent) Bytes() int { return f.st.bytes() }

// Merge combines another Frequent summary into this one using the
// Agarwal et al. mergeable-summaries rule: sum matching counters, then
// reduce back to k counters by subtracting the (k+1)-largest combined
// count from everything and dropping non-positive entries. The merged
// summary obeys the Misra–Gries guarantee for the concatenated stream.
func (f *Frequent) Merge(other core.Summary) error {
	o, ok := other.(*Frequent)
	if !ok {
		return core.Incompatible("Frequent: cannot merge %T", other)
	}
	if o.k != f.k {
		// Same reasoning as Space-Saving: a k mismatch is a provisioning
		// (φ) mismatch, and merging would exceed both advertised bounds.
		return core.Incompatible("Frequent: counter budget mismatch (k=%d/%d)", f.k, o.k)
	}
	all := make([]core.ItemCount, 0, len(f.st.nodes)+len(o.st.nodes))
	for _, nd := range f.st.nodes {
		c := nd.count - f.offset
		if id := o.st.lookup(nd.item); id >= 0 {
			c += o.st.nodes[id].count - o.offset
		}
		all = append(all, core.ItemCount{Item: nd.item, Count: c})
	}
	for _, nd := range o.st.nodes {
		if f.st.lookup(nd.item) < 0 {
			all = append(all, core.ItemCount{Item: nd.item, Count: nd.count - o.offset})
		}
	}
	core.SortByCountDesc(all)

	var sub int64
	if len(all) > f.k {
		sub = all[f.k].Count
	}
	// Rebuild.
	f.st.reset()
	f.offset = 0
	for i, ic := range all {
		if i >= f.k {
			break
		}
		c := ic.Count - sub
		if c <= 0 {
			break
		}
		f.st.room(f.k)
		f.st.push(ic.Item, c, 0)
	}
	f.n += o.n
	f.decs += o.decs + sub
	return nil
}
