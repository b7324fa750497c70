package counters

import (
	"slices"

	"streamfreq/internal/core"
)

// The counter store: every counter summary keeps its counters in one
// node table — a pointer-free node slice and the open-addressed index
// that finds an item's node — and orders them with one of two
// structures over it, which also holds each counter's count. The
// indexed min-heap here, the module's only heap, orders Space-Saving
// (SSH, and every tenant), Frequent (Misra–Gries), Filtered
// Space-Saving, Lossy Counting (LC and LCD) and Tracked's top-l roster,
// so the heap discipline, and with it the heap order the FQ02, SS02 and
// TK01 wire formats write, lives in one place (the sift's comment says
// why it must not change). The Stream-Summary of streamsummary.go (SSL)
// orders the same nodes by int32 bucket links and keeps each count in
// its bucket. A heap store is five slices plus a tombstone count:
//
//	nodes []ssNode — the counters' items and errors; node id =
//	                 position, ids stay dense;
//	index []int32  — an open-addressed hash table item → node id;
//	heap  []int32  — a min-heap of node ids ordered by count;
//	pos   []int32  — each node's heap slot, by node id;
//	hcnt  []int64  — each heap slot's count, the only copy.
//
// heap and pos share one allocation. Five operations change the store:
// push (a new counter), add (a count change), replaceMin (Space-Saving's
// replacement, FSS's promotion, Tracked's admission), popMin
// (Misra–Gries' eviction, Lossy Counting's prune) and grow (more room).
// Lossy Counting keys each entry by its upper bound count + Δ and keeps
// Δ in err, so the entries a bucket boundary prunes (count + Δ ≤ b − 1)
// are the ones at the root, popped without a sweep; and since no fixed
// k bounds its live set, it grows the store by an eighth when a new
// entry finds it full. Every other store has a budget of k counters.
// Frequent, FSS and Tracked allocate all of it at construction. A
// Space-Saving store (SSH, every tenant's, and SSL's) starts with no
// slots, so it holds what its stream has reached rather than what it
// may reach: its first update grows it to ssStartCap slots, or its
// first batch to the step that holds the batch's distinct items
// (fit). A decoder allocates only the entries its blob carries (so
// a forged header costs O(len(data))). A store that fills below its
// budget grows to the next of ssStartCap, 2·ssStartCap, 4·ssStartCap,
// ... up to the budget (nextCap). Growth copies the slices in order, so
// node ids and heap positions never move: answers and encodings do not
// depend on when a store grew. Index deletions leave tombstones,
// compacted by an O(k) rebuild when they accumulate. The layout is
// pointer-free below the slice headers, so a million instances cost the
// GC a million objects, not a hundred million: a multi-tenant daemon
// holds many small SSH instances, and the per-entry map buckets and
// heap pointers of a Go-map layout would dominate its footprint. Every
// store owns its slices; dropping the summary frees them.
//
// Every counter summary reports one space figure, its store's
// footprint at its capacities (bytes): for a heap store, 32 B per slot
// (a 16 B node, its heap id, heap slot and count) plus 4 B per index
// slot.

// ssNode is one counter's item and error: 16 bytes, pointer-free. err
// is the counter's error term — Space-Saving's inherited overcount,
// FSS's filter error at admission, Lossy Counting's Δ — and zero for
// Frequent and Tracked. Its count lives in the structure that orders
// it: its heap slot, or its Stream-Summary bucket.
type ssNode struct {
	item core.Item
	err  int64
}

// nodeTable holds the counters and finds them. index slots hold node
// id + 1; 0 is empty, ssTombstone marks a deleted slot that probes must
// walk through.
type nodeTable struct {
	nodes []ssNode
	index []int32
	tombs int32 // live tombstones in index
	shift uint  // 64 − log2(len(index)): hash top bits pick the slot
}

// ssStorage is one heap store: a node table ordered by a min-heap. The
// counts sit in heap order (hcnt[i] is slot i's), so sift comparisons
// read one contiguous array instead of chasing heap[i] through the
// node table, which is where a φ-provisioned summary's update time
// goes; a node's count is hcnt[pos[id]].
type ssStorage struct {
	nodeTable
	heap []int32 // node id by heap slot
	pos  []int32 // heap slot by node id; shares heap's allocation
	hcnt []int64 // count by heap slot
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

// newNodeTable allocates a node table for k counters. The node slice
// is capped at exactly k, so the capacities bytes reports move only
// through grow.
func newNodeTable(k int) nodeTable {
	capacity, shift := ssIndexCap(k)
	return nodeTable{nodes: make([]ssNode, 0, k), index: make([]int32, capacity), shift: shift}
}

// newSSStorage allocates a heap store for k counters.
func newSSStorage(k int) ssStorage {
	st := ssStorage{nodeTable: newNodeTable(k), hcnt: make([]int64, 0, k)}
	st.heap, st.pos = heapAndPos(nil, nil, k)
	return st
}

// heapAndPos returns copies of heap and pos at capacity k, the two
// slices in one allocation: heap in its first k int32s, pos in the
// rest, each capped so that neither appends into the other.
func heapAndPos(heap, pos []int32, k int) ([]int32, []int32) {
	buf := make([]int32, 2*k)
	return append(buf[:0:k], heap...), append(buf[k:k], pos...)
}

// ssStartCap is the node capacity a Space-Saving store first grows to
// (less when its budget is smaller).
const ssStartCap = 32

// nextCap is the capacity a full store of c slots grows to under
// budget k: the next of ssStartCap, 2·ssStartCap, 4·ssStartCap, ...
// above c, at most k. A constructed store doubles along these steps; a
// decoded one, sized to its blob, joins them at its first growth, so
// its slices too fill whole allocator size classes and its Bytes stays
// the heap it retains. Either way a store holds more than half its
// slots, and the copies cost about one slot move per slot of the final
// capacity.
func nextCap(c, k int) int {
	next := ssStartCap
	for next <= c {
		next *= 2
	}
	return min(next, k)
}

// ssNodeBytes is one node's footprint; a heap store's slot adds its
// heap id, its heap slot and its count (ssSlotBytes).
const (
	ssNodeBytes = 16
	ssSlotBytes = ssNodeBytes + 4 + 4 + 8
)

// ssBlockBytes is the footprint of a heap store built for k counters.
func ssBlockBytes(k int) int {
	capacity, _ := ssIndexCap(k)
	return ssSlotBytes*k + 4*capacity
}

// bytes is the node table's footprint at its capacities.
func (t *nodeTable) bytes() int { return ssNodeBytes*cap(t.nodes) + 4*len(t.index) }

// bytes is the heap store's footprint at its capacities, the figure
// every heap-ordered summary's Bytes reports (ssBlockBytes(k) for a
// store built for k counters).
func (st *ssStorage) bytes() int {
	return st.nodeTable.bytes() + (ssSlotBytes-ssNodeBytes)*cap(st.heap)
}

// ssHash spreads an item over the index: one Fibonacci multiply with
// the slot taken from the product's top bits, the same mixing the batch
// pre-aggregation scratch uses (strong top bits even for sequential
// identifiers).
func ssHash(x core.Item) uint64 { return uint64(x) * 0x9E3779B97F4A7C15 }

// lookup returns the node id tracking x, or -1.
func (t *nodeTable) lookup(x core.Item) int32 {
	mask := uint64(len(t.index) - 1)
	i := ssHash(x) >> t.shift
	for {
		s := t.index[i]
		if s == 0 {
			return -1
		}
		if s != ssTombstone && t.nodes[s-1].item == x {
			return s - 1
		}
		i = (i + 1) & mask
	}
}

// insert records x → id. x must not be present. The first tombstone on
// the probe path is reused, keeping the table dense under the
// replacement churn of a full summary.
func (t *nodeTable) insert(x core.Item, id int32) {
	mask := uint64(len(t.index) - 1)
	i := ssHash(x) >> t.shift
	slot := uint64(0)
	haveSlot := false
	for {
		s := t.index[i]
		if s == 0 {
			if !haveSlot {
				slot = i
			} else {
				t.tombs--
			}
			t.index[slot] = id + 1
			return
		}
		if s == ssTombstone && !haveSlot {
			slot, haveSlot = i, true
		}
		i = (i + 1) & mask
	}
}

// slotOf returns the index slot of x, which must be tracked.
func (t *nodeTable) slotOf(x core.Item) uint64 {
	mask := uint64(len(t.index) - 1)
	i := ssHash(x) >> t.shift
	for {
		s := t.index[i]
		if s == 0 {
			panic("counters: counter store lost an indexed item")
		}
		if s != ssTombstone && t.nodes[s-1].item == x {
			return i
		}
		i = (i + 1) & mask
	}
}

// unindex tombstones the slot of x, which must be tracked.
func (t *nodeTable) unindex(x core.Item) {
	t.index[t.slotOf(x)] = ssTombstone
	t.tombs++
}

// retrack rewrites node id, which must be tracked, to track x, which
// must not be, with error err: the replacement every Space-Saving
// variant makes. The node keeps its id and its place in the ordering
// structure, which sets its count.
func (t *nodeTable) retrack(id int32, x core.Item, err int64) {
	nd := &t.nodes[id]
	t.unindex(nd.item)
	nd.item, nd.err = x, err
	t.insert(x, id)
	t.compact()
}

// compact rebuilds the index once tombstones exceed a quarter of the
// table (O(k)), which bounds probe lengths: ≤ 1/2 live + ≤ 1/4
// tombstones keeps occupancy under 3/4 at all times. The rebuild reads
// the items the nodes hold, so it runs only after a vacated node has
// been rewritten or dropped; run earlier, it would index the departed
// item again.
func (t *nodeTable) compact() {
	if int(t.tombs) > len(t.index)/4 {
		clear(t.index)
		t.reindex(t.index)
	}
}

// reindex indexes every node in the zeroed table index, which becomes
// the store's index, free of tombstones.
func (t *nodeTable) reindex(index []int32) {
	t.index, t.tombs = index, 0
	for id := range t.nodes {
		t.insert(t.nodes[id].item, int32(id))
	}
}

// newNode appends a node tracking x, which must be untracked, with
// error err, and returns its id. The table must have room.
func (t *nodeTable) newNode(x core.Item, err int64) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, ssNode{item: x, err: err})
	t.insert(x, id)
	return id
}

// reset empties the table for reuse, keeping capacity.
func (t *nodeTable) reset() {
	t.nodes = t.nodes[:0]
	clear(t.index)
	t.tombs = 0
}

// resized returns a copy of s in a fresh slice of capacity c.
func resized[S ~[]E, E any](s S, c int) S { return append(make(S, 0, c), s...) }

// clone returns an independent deep copy at the same capacities, so a
// clone's footprint is its source's.
func (t *nodeTable) clone() nodeTable {
	nt := *t
	nt.nodes = resized(t.nodes, cap(t.nodes))
	nt.index = slices.Clone(t.index)
	return nt
}

// grow raises the node capacity to k. Ids stay, so no ordering
// structure changes; the index is rebuilt only when k needs a larger
// table.
func (t *nodeTable) grow(k int) {
	t.nodes = resized(t.nodes, k)
	if capacity, shift := ssIndexCap(k); capacity > len(t.index) {
		t.shift = shift
		t.reindex(make([]int32, capacity))
	}
}

// validate checks the node table's invariants — an index sized for the
// node capacity, holding exactly one live slot per node and the
// tombstones it counts; used only by tests.
func (t *nodeTable) validate() bool {
	if capacity, _ := ssIndexCap(cap(t.nodes)); len(t.index) != capacity {
		return false
	}
	live, tombs := 0, 0
	for _, s := range t.index {
		switch {
		case s == ssTombstone:
			tombs++
		case s > int32(len(t.nodes)):
			return false
		case s > 0:
			live++
		}
	}
	if live != len(t.nodes) || tombs != int(t.tombs) {
		return false
	}
	for id := range t.nodes {
		if t.lookup(t.nodes[id].item) != int32(id) {
			return false
		}
	}
	return true
}

// count returns counter id's count.
func (st *ssStorage) count(id int32) int64 { return st.hcnt[st.pos[id]] }

// query returns the counters at or above threshold, descending.
func (st *ssStorage) query(threshold int64) []core.ItemCount {
	var out []core.ItemCount
	for i, c := range st.hcnt {
		if c >= threshold {
			out = append(out, core.ItemCount{Item: st.nodes[st.heap[i]].item, Count: c})
		}
	}
	core.SortByCountDesc(out)
	return out
}

// reset empties the storage for reuse, keeping capacity.
func (st *ssStorage) reset() {
	st.nodeTable.reset()
	st.heap, st.pos, st.hcnt = st.heap[:0], st.pos[:0], st.hcnt[:0]
}

// clone returns an independent deep copy at the same capacities.
func (st *ssStorage) clone() ssStorage {
	nt := ssStorage{nodeTable: st.nodeTable.clone(), hcnt: resized(st.hcnt, cap(st.hcnt))}
	nt.heap, nt.pos = heapAndPos(st.heap, st.pos, cap(st.heap))
	return nt
}

// grow raises the capacity to k counters. Heap positions stay, so the
// heap arrangement does not change. Lossy Counting grows by an eighth,
// not a doubling, because its store never shrinks: its node slots stay
// within 1.125× of the largest live set it held, and the copies cost
// about eight slot moves per slot of the final capacity, once.
func (st *ssStorage) grow(k int) {
	st.nodeTable.grow(k)
	st.heap, st.pos = heapAndPos(st.heap, st.pos, k)
	st.hcnt = resized(st.hcnt, k)
}

// room makes space for one more counter in a store whose budget is k
// and which holds fewer than k: a full store grows to nextCap.
func (st *ssStorage) room(k int) {
	if c := cap(st.nodes); len(st.nodes) == c {
		st.grow(nextCap(c, k))
	}
}

// fit readies an empty store whose budget is k for d new counters: it
// grows, in one copy, to the capacity d calls of room would reach. A
// Space-Saving batch into an empty store fits its distinct items, all
// of them new, so a new tenant's first batch allocates its store once.
func (st *ssStorage) fit(d, k int) {
	if c := nextCap(d-1, k); c > cap(st.nodes) {
		st.grow(c)
	}
}

// push adds x, which must be untracked, as a new counter. The store
// must have room.
func (st *ssStorage) push(x core.Item, count, err int64) {
	i := len(st.heap)
	id := st.newNode(x, err)
	st.heap = append(st.heap, id)
	st.pos = append(st.pos, int32(i))
	st.hcnt = append(st.hcnt, count)
	st.heapUp(i)
}

// add changes counter id's count by delta, of either sign, and restores
// heap order.
func (st *ssStorage) add(id int32, delta int64) {
	i := int(st.pos[id])
	st.hcnt[i] += delta
	if !st.heapDown(i) {
		st.heapUp(i)
	}
}

// replaceMin rewrites the minimum counter in place to track x, which
// must be untracked: Space-Saving's replacement, FSS's promotion and
// Tracked's admission.
func (st *ssStorage) replaceMin(x core.Item, count, err int64) {
	st.retrack(st.heap[0], x, err)
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
	st.pos[st.heap[0]] = 0
	st.heap, st.hcnt = st.heap[:last], st.hcnt[:last]
	if last > 0 {
		st.heapDown(0)
	}
	if lastID := int32(last); id != lastID { // as many node ids as heap slots
		moved := st.nodes[lastID]
		st.index[st.slotOf(moved.item)] = id + 1
		st.nodes[id], st.pos[id] = moved, st.pos[lastID]
		st.heap[st.pos[id]] = id
	}
	st.nodes, st.pos = st.nodes[:last], st.pos[:last]
	st.compact()
}

// This is the only heap in the module, and its sift must stay
// pairwise-swap-identical to the textbook indexed heap: compare counts
// only (no tie-break), descend to the right child only when it is
// strictly smaller, stop on equality. FQ02, SS02 and TK01 write the
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
		st.pos[st.heap[i]] = int32(i)
		i = parent
	}
	if i != start {
		st.heap[i], st.hcnt[i] = id, cnt
		st.pos[id] = int32(i)
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
		st.pos[st.heap[i]] = int32(i)
		i = small
	}
	if i != start {
		st.heap[i], st.hcnt[i] = id, cnt
		st.pos[id] = int32(i)
	}
	return i != start
}

// validateStorage checks the structural invariants — the node table's,
// then one length and one capacity for the node-slot slices, heap and
// pos each other's inverse (so ids are dense and every node has one
// slot), and heap order; used only by tests.
func (st *ssStorage) validateStorage() bool {
	n := len(st.nodes)
	if !st.nodeTable.validate() || len(st.heap) != n || len(st.pos) != n || len(st.hcnt) != n {
		return false
	}
	k := cap(st.nodes)
	if cap(st.heap) != k || cap(st.pos) != k || cap(st.hcnt) != k {
		return false
	}
	for i, id := range st.heap {
		if id < 0 || int(id) >= n || st.pos[id] != int32(i) {
			return false
		}
		if l := 2*i + 1; l < len(st.heap) && st.hcnt[l] < st.hcnt[i] {
			return false
		}
		if r := 2*i + 2; r < len(st.heap) && st.hcnt[r] < st.hcnt[i] {
			return false
		}
	}
	return true
}
