package counters

import (
	"slices"
	"sync"

	"streamfreq/internal/core"
)

// The counter store: the module's only indexed min-heap. Every
// heap-based counter summary keeps its counters here — Space-Saving
// (SSH, and every tenant), Frequent (Misra–Gries), Filtered
// Space-Saving, Lossy Counting (LC and LCD) and Tracked's top-l roster
// — so the heap discipline, and with it the heap order the FQ01, SS01
// and TK01 wire formats write, lives in one place (the sift's comment
// says why it must not change). A store is three slices plus a count
// mirror:
//
//	nodes []ssNode — the counters themselves (item, count, err, heap
//	                 position); node id = position, ids stay dense;
//	heap  []int32  — a min-heap of node ids ordered by count;
//	index []int32  — an open-addressed hash table item → node id.
//
// Five operations change it: push (a new counter), add (a count
// change), replaceMin (Space-Saving's replacement, FSS's promotion,
// Tracked's admission), popMin (Misra–Gries' eviction, Lossy
// Counting's prune) and grow (more room). Lossy Counting keys each
// entry by its upper bound count + Δ and keeps Δ in err, so the entries
// a bucket boundary prunes (count + Δ ≤ b − 1) are the ones at the
// root, popped without a sweep; and since no fixed k bounds its live
// set, it grows the store when a new entry finds it full. Index
// deletions leave tombstones, compacted by an O(k) rebuild when they
// accumulate. The layout is pointer-free below the slice headers, so a
// million instances cost the GC a million objects, not a hundred
// million: a multi-tenant daemon holds millions of small SSH instances,
// and the per-entry map buckets and heap pointers of a Go-map layout
// would dominate its footprint.
//
// Every store-backed summary reports one space figure, the store's
// footprint at its capacities (bytes): 44 B per node slot plus 4 B per
// index slot.
//
// A Slab carves those slices out of per-k chunk arenas and recycles
// whole blocks through a free list, so tenant churn (lazy instantiation
// + idle eviction) allocates nothing in steady state and the per-tenant
// footprint is exactly BlockBytes(k) — the bound the multi-tenant
// benchmark reports. Standalone stores (newSSStorage) use the same
// layout with directly allocated slices; the Slab is an allocator, not
// a semantic change.

// ssNode is one counter: 32 bytes, pointer-free. err is the counter's
// error term — Space-Saving's inherited overcount, FSS's filter error
// at admission, Lossy Counting's Δ — and zero for Frequent and Tracked.
// heapIdx mirrors the node's position in the heap slice.
type ssNode struct {
	item    core.Item
	count   int64
	err     int64
	heapIdx int32
}

// ssStorage is one counter store. index slots hold node id + 1; 0 is
// empty, ssTombstone marks a deleted slot that probes must walk through.
type ssStorage struct {
	nodes []ssNode
	heap  []int32
	// hcnt mirrors each heap slot's count (hcnt[i] ==
	// nodes[heap[i]].count): sift comparisons read one contiguous
	// array instead of chasing heap[i] through the node table, which
	// is where a φ-provisioned summary's update time goes.
	hcnt  []int64
	index []int32
	tombs int32 // live tombstones in index
	shift uint  // 64 − log2(len(index)): hash top bits pick the slot
}

const ssTombstone = int32(-1)

// ssIndexCap returns the index capacity for k counters: the smallest
// power of two holding k live entries at ≤ 50% load (minimum 8 slots,
// so tiny k still probes sanely).
func ssIndexCap(k int) (capacity int, shift uint) {
	capacity = 8
	bits := uint(3)
	for capacity < 2*k {
		capacity *= 2
		bits++
	}
	return capacity, 64 - bits
}

// newSSStorage allocates standalone storage for k counters. Slices are
// capped at exactly k so appends never reallocate out of a slab block
// (the same code path serves both allocators).
func newSSStorage(k int) ssStorage {
	capacity, shift := ssIndexCap(k)
	return ssStorage{
		nodes: make([]ssNode, 0, k),
		heap:  make([]int32, 0, k),
		hcnt:  make([]int64, 0, k),
		index: make([]int32, capacity),
		shift: shift,
	}
}

// ssSlotBytes is one node slot's footprint: the 32-byte node, its heap
// id and its count mirror.
const ssSlotBytes = 32 + 4 + 8

// ssBlockBytes is the footprint of a store for k counters; the slab's
// accounting sums it.
func ssBlockBytes(k int) int {
	capacity, _ := ssIndexCap(k)
	return ssSlotBytes*k + 4*capacity
}

// bytes is the store's footprint at its capacities, the figure every
// store-backed summary's Bytes reports (ssBlockBytes(k) for a store
// built for k counters).
func (st *ssStorage) bytes() int { return ssSlotBytes*cap(st.nodes) + 4*len(st.index) }

// ssHash spreads an item over the index: one Fibonacci multiply with
// the slot taken from the product's top bits, the same mixing the batch
// pre-aggregation scratch uses (strong top bits even for sequential
// identifiers).
func ssHash(x core.Item) uint64 { return uint64(x) * 0x9E3779B97F4A7C15 }

// lookup returns the node id tracking x, or -1.
func (st *ssStorage) lookup(x core.Item) int32 {
	mask := uint64(len(st.index) - 1)
	i := ssHash(x) >> st.shift
	for {
		s := st.index[i]
		if s == 0 {
			return -1
		}
		if s != ssTombstone && st.nodes[s-1].item == x {
			return s - 1
		}
		i = (i + 1) & mask
	}
}

// insert records x → id. x must not be present. The first tombstone on
// the probe path is reused, keeping the table dense under the
// replacement churn of a full summary.
func (st *ssStorage) insert(x core.Item, id int32) {
	mask := uint64(len(st.index) - 1)
	i := ssHash(x) >> st.shift
	slot := uint64(0)
	haveSlot := false
	for {
		s := st.index[i]
		if s == 0 {
			if !haveSlot {
				slot = i
			} else {
				st.tombs--
			}
			st.index[slot] = id + 1
			return
		}
		if s == ssTombstone && !haveSlot {
			slot, haveSlot = i, true
		}
		i = (i + 1) & mask
	}
}

// slotOf returns the index slot of x, which must be tracked.
func (st *ssStorage) slotOf(x core.Item) uint64 {
	mask := uint64(len(st.index) - 1)
	i := ssHash(x) >> st.shift
	for {
		s := st.index[i]
		if s == 0 {
			panic("counters: counter store lost an indexed item")
		}
		if s != ssTombstone && st.nodes[s-1].item == x {
			return i
		}
		i = (i + 1) & mask
	}
}

// unindex tombstones the slot of x, which must be tracked.
func (st *ssStorage) unindex(x core.Item) {
	st.index[st.slotOf(x)] = ssTombstone
	st.tombs++
}

// compact rebuilds the index once tombstones exceed a quarter of the
// table (O(k)), which bounds probe lengths: ≤ 1/2 live + ≤ 1/4
// tombstones keeps occupancy under 3/4 at all times. The rebuild reads
// the items the nodes hold, so it runs only after a vacated node has
// been rewritten or dropped; run earlier, it would index the departed
// item again.
func (st *ssStorage) compact() {
	if int(st.tombs) > len(st.index)/4 {
		clear(st.index)
		st.reindex(st.index)
	}
}

// reindex indexes every node in the zeroed table index, which becomes
// the store's index, free of tombstones.
func (st *ssStorage) reindex(index []int32) {
	st.index, st.tombs = index, 0
	for id := range st.nodes {
		st.insert(st.nodes[id].item, int32(id))
	}
}

// reset empties the storage for reuse, keeping capacity.
func (st *ssStorage) reset() {
	st.nodes = st.nodes[:0]
	st.heap = st.heap[:0]
	st.hcnt = st.hcnt[:0]
	clear(st.index)
	st.tombs = 0
}

// clone returns an independent deep copy at the same capacities, in
// standalone slices (a snapshot must outlive its source's slab block).
func (st *ssStorage) clone() ssStorage {
	ns := *st
	ns.realloc(cap(st.nodes))
	ns.index = slices.Clone(st.index)
	return ns
}

// realloc moves the nodes, heap and count mirror into fresh standalone
// slices of capacity k.
func (st *ssStorage) realloc(k int) {
	st.nodes = append(make([]ssNode, 0, k), st.nodes...)
	st.heap = append(make([]int32, 0, k), st.heap...)
	st.hcnt = append(make([]int64, 0, k), st.hcnt...)
}

// grow raises the capacity by an eighth, and at least one slot: Lossy
// Counting's room for a new entry, as no fixed k bounds its live set.
// Ids and heap positions stay, so the heap arrangement does not change;
// the index is rebuilt only when the new capacity needs a larger table.
// An eighth, not a doubling, because LC's store never shrinks: its node
// slots stay within 1.125× of the largest live set it held. The copies
// cost about eight slot moves per slot of the final capacity, once.
func (st *ssStorage) grow() {
	k := cap(st.nodes) + cap(st.nodes)/8 + 1
	st.realloc(k)
	if capacity, shift := ssIndexCap(k); capacity > len(st.index) {
		st.shift = shift
		st.reindex(make([]int32, capacity))
	}
}

// push adds x, which must be untracked, as a new counter. The store
// must have room.
func (st *ssStorage) push(x core.Item, count, err int64) {
	id := int32(len(st.nodes))
	i := len(st.heap)
	st.nodes = append(st.nodes, ssNode{item: x, count: count, err: err, heapIdx: int32(i)})
	st.insert(x, id)
	st.heap = append(st.heap, id)
	st.hcnt = append(st.hcnt, count)
	st.heapUp(i)
}

// add changes counter id's count by delta, of either sign, and restores
// heap order.
func (st *ssStorage) add(id int32, delta int64) {
	nd := &st.nodes[id]
	nd.count += delta
	i := int(nd.heapIdx)
	st.hcnt[i] = nd.count
	if !st.heapDown(i) {
		st.heapUp(i)
	}
}

// replaceMin rewrites the minimum counter in place to track x, which
// must be untracked: Space-Saving's replacement, FSS's promotion and
// Tracked's admission. The node keeps its id.
func (st *ssStorage) replaceMin(x core.Item, count, err int64) {
	id := st.heap[0]
	nd := &st.nodes[id]
	st.unindex(nd.item)
	nd.item, nd.count, nd.err = x, count, err
	st.insert(x, id)
	st.compact()
	st.hcnt[0] = count
	st.heapDown(0)
}

// popMin removes the minimum counter: Misra–Gries' eviction and Lossy
// Counting's prune. The last heap slot moves to the root and sifts
// down, as a pairwise-swap pop does; the last node moves into the freed
// id, so ids stay dense.
func (st *ssStorage) popMin() {
	id := st.heap[0]
	st.unindex(st.nodes[id].item)
	last := len(st.heap) - 1
	st.heap[0], st.hcnt[0] = st.heap[last], st.hcnt[last]
	st.nodes[st.heap[0]].heapIdx = 0
	st.heap, st.hcnt = st.heap[:last], st.hcnt[:last]
	if last > 0 {
		st.heapDown(0)
	}
	if lastID := int32(len(st.nodes) - 1); id != lastID {
		moved := st.nodes[lastID]
		st.index[st.slotOf(moved.item)] = id + 1
		st.nodes[id] = moved
		st.heap[moved.heapIdx] = id
	}
	st.nodes = st.nodes[:len(st.nodes)-1]
	st.compact()
}

// This is the only heap in the module, and its sift must stay
// pairwise-swap-identical to the textbook indexed heap: compare counts
// only (no tie-break), descend to the right child only when it is
// strictly smaller, stop on equality. FQ01, SS01 and TK01 write the
// heap array in order, so any other arrangement would change the bytes
// of every checkpoint and /v1/summary blob of F, SSH, CM and CS — the
// bytes the wire golden and the crash-recovery walls compare.
//
// heapUp and heapDown sift hole-style: the moving slot is held in
// registers while lighter/heavier slots shift one level, and written
// exactly once at its final position — the arrangement a pairwise-swap
// sift produces, with half the stores per level.

func (st *ssStorage) heapUp(i int) {
	start := i
	id, cnt := st.heap[i], st.hcnt[i]
	for i > 0 {
		parent := (i - 1) / 2
		if st.hcnt[parent] <= cnt {
			break
		}
		st.heap[i], st.hcnt[i] = st.heap[parent], st.hcnt[parent]
		st.nodes[st.heap[i]].heapIdx = int32(i)
		i = parent
	}
	if i != start {
		st.heap[i], st.hcnt[i] = id, cnt
		st.nodes[id].heapIdx = int32(i)
	}
}

// heapDown sifts slot i toward the leaves and reports whether it moved.
func (st *ssStorage) heapDown(i int) bool {
	start := i
	n := len(st.heap)
	id, cnt := st.heap[i], st.hcnt[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small, sc := l, st.hcnt[l]
		if r := l + 1; r < n && st.hcnt[r] < sc {
			small, sc = r, st.hcnt[r]
		}
		if sc >= cnt {
			break
		}
		st.heap[i], st.hcnt[i] = st.heap[small], sc
		st.nodes[st.heap[i]].heapIdx = int32(i)
		i = small
	}
	if i != start {
		st.heap[i], st.hcnt[i] = id, cnt
		st.nodes[id].heapIdx = int32(i)
	}
	return i != start
}

// validateStorage checks the structural invariants — dense ids, heap
// order, the heapIdx and hcnt mirrors, one capacity for the node-slot
// slices with the index sized for it, and an index holding exactly one
// live slot per counter and the tombstones it counts; used only by
// tests.
func (st *ssStorage) validateStorage() bool {
	if len(st.nodes) != len(st.heap) || len(st.hcnt) != len(st.heap) {
		return false
	}
	k := cap(st.nodes)
	if cap(st.heap) != k || cap(st.hcnt) != k {
		return false
	}
	if capacity, _ := ssIndexCap(k); len(st.index) != capacity {
		return false
	}
	for i, id := range st.heap {
		if id < 0 || int(id) >= len(st.nodes) || st.nodes[id].heapIdx != int32(i) {
			return false
		}
		if st.hcnt[i] != st.nodes[id].count {
			return false
		}
		if l := 2*i + 1; l < len(st.heap) && st.hcnt[l] < st.hcnt[i] {
			return false
		}
		if r := 2*i + 2; r < len(st.heap) && st.hcnt[r] < st.hcnt[i] {
			return false
		}
	}
	live, tombs := 0, 0
	for _, s := range st.index {
		switch {
		case s == ssTombstone:
			tombs++
		case s > int32(len(st.nodes)):
			return false
		case s > 0:
			live++
		}
	}
	if live != len(st.nodes) || tombs != int(st.tombs) {
		return false
	}
	for id := range st.nodes {
		if st.lookup(st.nodes[id].item) != int32(id) {
			return false
		}
	}
	return true
}

// Slab is a shared allocator of SpaceSavingHeap storage: per-k size
// classes, chunked arenas (a block's slices never move once carved, so
// handed-out storage stays valid as the slab grows), and a free list of
// released blocks. Safe for concurrent use; the instances it hands out
// are not (same contract as every summary — wrap or lock above).
type Slab struct {
	mu      sync.Mutex
	classes map[int]*slabClass
	chunkB  int64 // cumulative chunk bytes, for accounting
	live    int64 // blocks currently handed out
	freeN   int64 // blocks parked on free lists
}

type slabClass struct {
	free []ssStorage
	// remainder of the current chunk, carved front-to-back
	nodes []ssNode
	heap  []int32
	hcnt  []int64
	index []int32
}

// NewSlab returns an empty slab.
func NewSlab() *Slab {
	return &Slab{classes: make(map[int]*slabClass)}
}

// slabChunkBlocks sizes a chunk: ~1 MiB of nodes per chunk, between 8
// and 4096 blocks, so tiny-k tenants amortize allocation without huge-k
// classes over-reserving.
func slabChunkBlocks(k int) int {
	b := (1 << 20) / (32 * k)
	if b < 8 {
		b = 8
	}
	if b > 4096 {
		b = 4096
	}
	return b
}

// get hands out reset storage for k counters.
func (sl *Slab) get(k int) ssStorage {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	c := sl.classes[k]
	if c == nil {
		c = &slabClass{}
		sl.classes[k] = c
	}
	if n := len(c.free); n > 0 {
		st := c.free[n-1]
		c.free[n-1] = ssStorage{}
		c.free = c.free[:n-1]
		st.reset()
		sl.freeN--
		sl.live++
		return st
	}
	capacity, shift := ssIndexCap(k)
	if len(c.nodes) < k {
		blocks := slabChunkBlocks(k)
		c.nodes = make([]ssNode, blocks*k)
		c.heap = make([]int32, blocks*k)
		c.hcnt = make([]int64, blocks*k)
		c.index = make([]int32, blocks*capacity)
		sl.chunkB += int64(blocks) * int64(ssBlockBytes(k))
	}
	st := ssStorage{
		nodes: c.nodes[:0:k],
		heap:  c.heap[:0:k],
		hcnt:  c.hcnt[:0:k],
		index: c.index[:capacity:capacity],
		shift: shift,
	}
	c.nodes = c.nodes[k:]
	c.heap = c.heap[k:]
	c.hcnt = c.hcnt[k:]
	c.index = c.index[capacity:]
	sl.live++
	return st
}

// put parks a released block on its class free list.
func (sl *Slab) put(k int, st ssStorage) {
	if cap(st.nodes) == 0 {
		return
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	c := sl.classes[k]
	if c == nil {
		c = &slabClass{}
		sl.classes[k] = c
	}
	c.free = append(c.free, st)
	sl.live--
	sl.freeN++
}

// NewSpaceSaving returns an SSH summary whose storage comes from the
// slab. Release it when the instance is dropped so the block recycles.
func (sl *Slab) NewSpaceSaving(k int) *SpaceSavingHeap {
	if k <= 0 {
		panic("counters: SpaceSaving requires k > 0")
	}
	return &SpaceSavingHeap{k: k, st: sl.get(k), slab: sl}
}

// SlabStats is the slab's accounting snapshot: the slab section of a
// tenant table's stats (see obs.Registry.Stats for the tags).
type SlabStats struct {
	ChunkBytes int64 `json:"chunk_bytes" metric:"freq_tenants_slab_bytes" help:"Slab arena footprint backing tenant counters."`
	LiveBlocks int64 `json:"live_blocks" metric:"freq_tenants_slab_live_blocks" help:"Slab blocks handed out and not released."`
	FreeBlocks int64 `json:"free_blocks"` // blocks parked for reuse
}

// Stats reports the slab's footprint.
func (sl *Slab) Stats() SlabStats {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return SlabStats{ChunkBytes: sl.chunkB, LiveBlocks: sl.live, FreeBlocks: sl.freeN}
}

// BlockBytes reports the exact per-instance storage footprint for k
// counters — the documented bytes/tenant bound of the multi-tenant
// table (nodes + heap + index, all flat).
func BlockBytes(k int) int { return ssBlockBytes(k) }
