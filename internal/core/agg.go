package core

import "sync"

// Collapse is the pre-aggregation step shared by the counter summaries'
// batch paths, Tracked and the sketch hierarchies: it collapses a batch of unit arrivals into one (item, count)
// pair per distinct item, in first-appearance order, and passes the
// pairs to apply as two parallel slices. The slices are scratch owned by
// Collapse: apply may overwrite their contents and must not retain
// them. A batch longer than maxAggChunk is collapsed and applied chunk
// by chunk; an empty batch never calls apply.
//
// Collapsing duplicates is where the batch win comes from: each
// distinct item costs one summary update per batch regardless of how
// many times it repeats — one map lookup and one structure maintenance
// step (heap sift, bucket relink) for the counter summaries, one
// weighted counter add per row for the linear sketches — which on
// skewed streams, the regime the paper's throughput plots measure,
// removes the large majority of the per-arrival work. For that trade to
// pay, the scratch must be much cheaper per arrival than the summary's
// own update, so it is a flat open-addressed table (linear probing,
// power-of-two capacity, multiplicative hash) tuned for probe locality:
// the hot slot array packs a 32-bit hash tag with a 32-bit count in one
// uint64 — 8 bytes per slot keeps the table L1-resident at batch sizes —
// and the full 64-bit keys live in a parallel array touched only on
// insert and on tag match (to confirm, or skip past, the ~2⁻³² per-pair
// tag collisions). Occupied slots are remembered in first-appearance
// order, so compaction into the pair slices and reset touch exactly the
// distinct items, with no probing and no tombstone hazards.
//
// The scratch is pooled across summaries: a batch borrows one table for
// the duration of Collapse and returns it, so steady-state batch
// ingestion allocates nothing, but a million idle tenants retain zero
// scratch — only as many tables exist as there are concurrently
// collapsing batches. Like Update itself, a summary's batch path is not
// safe for concurrent use; wrap with Concurrent or Pipelined.
func Collapse(items []Item, apply func(items []Item, counts []int64)) {
	if len(items) == 0 {
		return
	}
	a := aggPool.Get().(*batchAgg)
	for len(items) > 0 {
		n := min(len(items), maxAggChunk)
		apply(a.aggregate(items[:n]))
		a.release()
		items = items[n:]
	}
	aggPool.Put(a)
}

// batchAgg is Collapse's pooled scratch table.
type batchAgg struct {
	// table[i] holds tag<<32 | count; count 0 marks an empty slot (live
	// counts are ≥ 1, and maxAggChunk keeps counts inside 32 bits).
	table []uint64
	keys  []Item
	slots []uint32 // occupied table indices in first-appearance order
	mask  uint64
	shift uint // 64 − log2(capacity): the index is the product's top bits
	// items and counts are the compacted pairs handed to apply.
	items  []Item
	counts []int64
}

// maxAggChunk bounds one aggregation round. The packed slots hold a
// 32-bit count and the occupancy list holds 32-bit slot indices, so
// Collapse splits anything larger (an 8 GiB+ slice from a direct caller
// — UpdateBatches-driven ingest never gets near this) into chunks
// rather than silently wrapping a count into the tag bits.
const maxAggChunk = 1 << 30

// aggPool shares pre-aggregation tables across all summaries. A table's
// capacity grows to the largest batch it has served and is kept across
// uses; the pool bounds the population by the batch concurrency of the
// process rather than by its summary count.
var aggPool = sync.Pool{New: func() any { return new(batchAgg) }}

// grow (re)sizes the table to hold n distinct items below ~50% load.
func (a *batchAgg) grow(n int) {
	capacity := 16
	bits := uint(4)
	for capacity < 2*n {
		capacity *= 2
		bits++
	}
	a.table = make([]uint64, capacity)
	a.keys = make([]Item, capacity)
	a.mask = uint64(capacity - 1)
	a.shift = 64 - bits
}

// aggregate collapses items into the scratch and returns the distinct
// items with their counts, valid until release.
func (a *batchAgg) aggregate(items []Item) ([]Item, []int64) {
	if 2*len(items) > len(a.table) {
		a.grow(len(items))
	}
	for _, x := range items {
		// One Fibonacci-multiply is enough mixing here: the index takes
		// the product's top bits (where a multiplicative hash is
		// strongest, even for sequential identifiers), and a weak tag
		// only costs an extra key compare on the rare false match.
		v := uint64(x) * 0x9E3779B97F4A7C15
		tag := v << 32 // low product bits become the slot tag
		i := v >> a.shift
		for {
			s := a.table[i]
			if s&0xffffffff == 0 {
				a.table[i] = tag | 1
				a.keys[i] = x
				a.slots = append(a.slots, uint32(i))
				break
			}
			if s&(0xffffffff<<32) == tag && a.keys[i] == x {
				a.table[i] = s + 1
				break
			}
			i = (i + 1) & a.mask
		}
	}
	a.items, a.counts = a.items[:0], a.counts[:0]
	for _, s := range a.slots {
		a.items = append(a.items, a.keys[s])
		a.counts = append(a.counts, int64(a.table[s]&0xffffffff))
	}
	return a.items, a.counts
}

// release clears the scratch for the next batch, keeping capacity.
func (a *batchAgg) release() {
	for _, s := range a.slots {
		a.table[s] = 0
	}
	a.slots = a.slots[:0]
}
