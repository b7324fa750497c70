package counters

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"streamfreq/internal/core"
	"streamfreq/internal/wire"
)

// Binary serialization for counter-based summaries, used when shipping
// per-shard summaries to a coordinator for merging. Formats are versioned
// by a 4-byte magic; fixed-width fields are little-endian, and SS02
// writes its header and counts as uvarints.
//
// A decoder refuses a budget over MaxBudget, a negative n and any count
// above n (every count Update and Merge reach is at most n: a merged
// count is c_a + c_b, or c plus the other side's minimum, each at most
// n_a + n_b), and allocates for the entries the blob carries, not for
// the budget its header claims, so a forged header costs
// O(len(data)). A decoded store that fills below its budget then grows
// along the steps a constructed one takes (nextCap).

const (
	magicFQ = "FQ01"
	magicSS = "SS02"
	// magicSS1 is SS02's fixed-width predecessor, decoded but no longer
	// written.
	magicSS1 = "SS01"
	magicLC  = "LC01"
	magicSL  = "SL01"
	magicTK  = "TK01"
)

var le = binary.LittleEndian

// MarshalBinary implements encoding.BinaryMarshaler. Logical counts are
// stored (the offset is folded in), so the decoded summary is logically
// identical with offset zero.
func (f *Frequent) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 4+4*8+16*len(f.st.heap))
	out = append(out, magicFQ...)
	out = le.AppendUint64(out, uint64(f.k))
	out = le.AppendUint64(out, uint64(f.n))
	out = le.AppendUint64(out, uint64(f.decs))
	out = le.AppendUint64(out, uint64(len(f.st.heap)))
	for _, id := range f.st.heap {
		nd := &f.st.nodes[id]
		out = le.AppendUint64(out, uint64(nd.item))
		out = le.AppendUint64(out, uint64(nd.count-f.offset))
	}
	return out, nil
}

// DecodeFrequent parses a summary produced by (*Frequent).MarshalBinary.
func DecodeFrequent(data []byte) (*Frequent, error) {
	r := wire.NewReader(data)
	r.Magic(magicFQ)
	k, n, decs, cnt := r.U64(), r.I64(), r.I64(), r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if k == 0 || k > MaxBudget || cnt > k || n < 0 {
		return nil, fmt.Errorf("counters: implausible Frequent header (k=%d, n=%d, entries=%d)", k, n, cnt)
	}
	if uint64(r.Len()) != cnt*16 {
		return nil, fmt.Errorf("counters: Frequent payload %d bytes, want %d", r.Len(), cnt*16)
	}
	f := &Frequent{k: int(k), n: n, decs: decs, st: newSSStorage(int(cnt))}
	for i := uint64(0); i < cnt; i++ {
		item, count := core.Item(r.U64()), r.I64()
		if count <= 0 || count > n {
			return nil, fmt.Errorf("counters: invalid Frequent count %d (n=%d)", count, n)
		}
		if f.st.lookup(item) >= 0 {
			return nil, fmt.Errorf("counters: duplicate items in Frequent blob")
		}
		f.st.push(item, count, 0)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return f, nil
}

// MarshalBinary implements encoding.BinaryMarshaler. It writes SS02:
//
//	"SS02" | uvarint k | uvarint n | uvarint entries
//	per entry: u64 item | uvarint count | uvarint err
//
// Items are hashes and keep fixed width; counts and errors are mostly
// small, so a counter takes ~10 bytes where SS01's three u64s took 24.
// Entries are written in heap-structural order (store.go says why the
// sift must not change), so encode → decode → encode is byte-identical.
// The blob is allocated at exactly its final size, because an evicted
// tenant keeps it as its whole state.
func (s *SpaceSavingHeap) MarshalBinary() ([]byte, error) {
	size := len(magicSS) + uvarintLen(uint64(s.k)) + uvarintLen(uint64(s.n)) + uvarintLen(uint64(len(s.st.heap)))
	for _, id := range s.st.heap {
		nd := &s.st.nodes[id]
		size += 8 + uvarintLen(uint64(nd.count)) + uvarintLen(uint64(nd.err))
	}
	out := make([]byte, 0, size)
	out = append(out, magicSS...)
	out = binary.AppendUvarint(out, uint64(s.k))
	out = binary.AppendUvarint(out, uint64(s.n))
	out = binary.AppendUvarint(out, uint64(len(s.st.heap)))
	for _, id := range s.st.heap {
		nd := &s.st.nodes[id]
		out = le.AppendUint64(out, uint64(nd.item))
		out = binary.AppendUvarint(out, uint64(nd.count))
		out = binary.AppendUvarint(out, uint64(nd.err))
	}
	return out, nil
}

// uvarintLen is the length of x's encoding/binary uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// DecodeSpaceSavingHeap parses a summary produced by
// (*SpaceSavingHeap).MarshalBinary (SS02), or by an earlier build's
// (SS01: the same fields and order, every one a u64), so checkpoints,
// windowed blocks and bundles written before SS02 still load. Both
// get the same checks; SS02's entry count is bounded by the entries
// the bytes left can hold (each takes at least 10) before allocating.
func DecodeSpaceSavingHeap(data []byte) (*SpaceSavingHeap, error) {
	r := wire.NewReader(data)
	legacy := len(data) >= 4 && string(data[:4]) == magicSS1
	if legacy {
		r.Magic(magicSS1)
	} else {
		r.Magic(magicSS)
	}
	field := func() uint64 {
		if legacy {
			return r.U64()
		}
		return r.Uvarint()
	}
	k, n, cnt := field(), field(), field()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if k == 0 || k > MaxBudget || cnt > k || n > math.MaxInt64 {
		return nil, fmt.Errorf("counters: implausible SpaceSaving header (k=%d, n=%d, entries=%d)", k, n, cnt)
	}
	// An SS01 entry is 24 bytes; an SS02 entry at least 8 + 1 + 1.
	if left := uint64(r.Len()); legacy && left != 24*cnt || cnt > left/10 {
		return nil, fmt.Errorf("counters: SpaceSaving payload of %d bytes cannot hold %d entries", left, cnt)
	}
	s := &SpaceSavingHeap{k: int(k), n: int64(n), st: newSSStorage(int(cnt))}
	for i := uint64(0); i < cnt; i++ {
		item, count, errv := core.Item(r.U64()), field(), field()
		if err := r.Err(); err != nil {
			return nil, err // cut short: report that, not the zeros read after it
		}
		if count > n || errv > count {
			return nil, fmt.Errorf("counters: invalid SpaceSaving entry (count=%d err=%d, n=%d)", count, errv, n)
		}
		if s.st.lookup(item) >= 0 {
			return nil, fmt.Errorf("counters: duplicate items in SpaceSaving blob")
		}
		s.st.push(item, int64(count), int64(errv))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// MarshalBinary implements encoding.BinaryMarshaler. Entries are written
// in ascending item order, each as its observed count and Δ — the store
// order depends on history, and a canonical layout makes the encoding
// deterministic: logically equal summaries produce byte-equal blobs,
// the property the crash-recovery tests (and any content-addressed
// checkpoint store) compare on.
func (l *LossyCounting) MarshalBinary() ([]byte, error) {
	nodes := slices.Clone(l.st.nodes)
	slices.SortFunc(nodes, func(a, b ssNode) int { return cmp.Compare(a.item, b.item) })
	out := make([]byte, 0, 4+4*8+24*len(nodes))
	out = append(out, magicLC...)
	out = le.AppendUint64(out, math.Float64bits(l.epsilon))
	out = le.AppendUint64(out, uint64(l.variant))
	out = le.AppendUint64(out, uint64(l.n))
	out = le.AppendUint64(out, uint64(len(nodes)))
	for _, nd := range nodes {
		out = le.AppendUint64(out, uint64(nd.item))
		out = le.AppendUint64(out, uint64(nd.count-nd.err))
		out = le.AppendUint64(out, uint64(nd.err))
	}
	return out, nil
}

// DecodeLossyCounting parses a summary produced by
// (*LossyCounting).MarshalBinary.
func DecodeLossyCounting(data []byte) (*LossyCounting, error) {
	r := wire.NewReader(data)
	r.Magic(magicLC)
	eps, variant, n, cnt := math.Float64frombits(r.U64()), r.U64(), r.I64(), r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !(eps > 0 && eps < 1) || variant > 1 || cnt > MaxBudget {
		return nil, fmt.Errorf("counters: implausible LossyCounting header (ε=%v variant=%d entries=%d)", eps, variant, cnt)
	}
	if uint64(r.Len()) != cnt*24 {
		return nil, fmt.Errorf("counters: LossyCounting payload %d bytes, want %d", r.Len(), cnt*24)
	}
	l := NewLossyCounting(eps, LCVariant(variant))
	l.n = n
	l.bucket = max((n+l.width-1)/l.width, 1)
	l.st = newSSStorage(int(cnt))
	for i := uint64(0); i < cnt; i++ {
		item, count, delta := core.Item(r.U64()), r.I64(), r.I64()
		// Every state Update and Merge reach has 0 < count ≤ n and
		// 0 ≤ Δ ≤ b − 1 (merged Δs add, and ⌈a⌉ + ⌈c⌉ ≤ ⌈a + c⌉ + 1);
		// count + Δ is the entry's heap key, so it must not overflow.
		if count <= 0 || count > n || delta < 0 || delta > l.bucket-1 || count > math.MaxInt64-delta {
			return nil, fmt.Errorf("counters: invalid LossyCounting entry (count=%d Δ=%d, n=%d)", count, delta, n)
		}
		if l.st.lookup(item) >= 0 {
			return nil, fmt.Errorf("counters: duplicate item in LossyCounting blob")
		}
		l.st.push(item, count+delta, delta)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return l, nil
}

// MarshalBinary implements encoding.BinaryMarshaler for the
// Stream-Summary variant. Entries are written in structural order —
// buckets ascending by count, entries within a bucket from the head —
// and DecodeSpaceSavingList rebuilds exactly that linkage, so
// encode→decode→encode is byte-identical and the decoded structure is
// validate-clean like a Clone.
func (s *SpaceSavingList) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 4+3*8+24*len(s.t.nodes))
	out = append(out, magicSL...)
	out = le.AppendUint64(out, uint64(s.k))
	out = le.AppendUint64(out, uint64(s.n))
	out = le.AppendUint64(out, uint64(len(s.t.nodes)))
	for b := s.min; b >= 0; b = s.buckets[b].next {
		for e := s.buckets[b].head; e >= 0; e = s.links[e].next {
			nd := &s.t.nodes[e]
			out = le.AppendUint64(out, uint64(nd.item))
			out = le.AppendUint64(out, uint64(nd.count))
			out = le.AppendUint64(out, uint64(nd.err))
		}
	}
	return out, nil
}

// DecodeSpaceSavingList parses a summary produced by
// (*SpaceSavingList).MarshalBinary. Counts must be non-decreasing (the
// structural order MarshalBinary emits), so a shuffled or hand-forged
// blob is rejected; the entries are then linked from the last one back,
// each joining the head of the minimum bucket or opening a new minimum,
// which rebuilds the written order exactly.
func DecodeSpaceSavingList(data []byte) (*SpaceSavingList, error) {
	r := wire.NewReader(data)
	r.Magic(magicSL)
	k, n, cnt := r.U64(), r.I64(), r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if k == 0 || k > MaxBudget || cnt > k || n < 0 {
		return nil, fmt.Errorf("counters: implausible SpaceSavingList header (k=%d, n=%d, entries=%d)", k, n, cnt)
	}
	if uint64(r.Len()) != cnt*24 {
		return nil, fmt.Errorf("counters: SpaceSavingList payload %d bytes, want %d", r.Len(), cnt*24)
	}
	s := newSpaceSavingList(int(k), int(cnt))
	s.n = n
	last := int64(0)
	for i := uint64(0); i < cnt; i++ {
		item, count, errv := core.Item(r.U64()), r.I64(), r.I64()
		if count <= 0 || count > n || errv < 0 || errv > count {
			return nil, fmt.Errorf("counters: invalid SpaceSavingList entry (count=%d err=%d, n=%d)", count, errv, n)
		}
		if count < last {
			return nil, fmt.Errorf("counters: SpaceSavingList blob buckets out of order (%d after %d)", count, last)
		}
		if s.t.lookup(item) >= 0 {
			return nil, fmt.Errorf("counters: duplicate item in SpaceSavingList blob")
		}
		s.t.newNode(item, count, errv, -1)
		s.links = append(s.links, listLink{})
		last = count
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	for id := int32(cnt) - 1; id >= 0; id-- {
		s.attach(id, s.t.nodes[id].count, -1)
	}
	return s, nil
}

// MarshalBinary implements encoding.BinaryMarshaler. The heap is stored
// in array order, which DecodeTracked reproduces position for position,
// so encode→decode→encode is byte-identical. The inner summary must
// itself implement encoding.BinaryMarshaler; its blob is nested last.
func (t *Tracked) MarshalBinary() ([]byte, error) {
	m, ok := t.inner.(interface{ MarshalBinary() ([]byte, error) })
	if !ok {
		return nil, fmt.Errorf("counters: Tracked inner %s has no binary encoding", t.inner.Name())
	}
	innerBlob, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 4+2*8+16*len(t.st.heap)+8+len(innerBlob))
	out = append(out, magicTK...)
	out = le.AppendUint64(out, uint64(t.capacity))
	out = le.AppendUint64(out, uint64(len(t.st.heap)))
	for _, id := range t.st.heap {
		nd := &t.st.nodes[id]
		out = le.AppendUint64(out, uint64(nd.item))
		out = le.AppendUint64(out, uint64(nd.count))
	}
	out = le.AppendUint64(out, uint64(len(innerBlob)))
	return append(out, innerBlob...), nil
}

// DecodeTracked parses a blob produced by (*Tracked).MarshalBinary,
// decoding the nested inner-summary blob with decodeInner (the root
// package's magic dispatch, which owns the registry of formats). The
// heap is rebuilt at its stored positions and validated as a min-heap,
// so a corrupt blob is rejected rather than yielding a tracker that
// silently mis-evicts.
func DecodeTracked(data []byte, decodeInner func([]byte) (core.Summary, error)) (*Tracked, error) {
	r := wire.NewReader(data)
	r.Magic(magicTK)
	capacity, heapLen := r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if capacity == 0 || capacity > MaxBudget || heapLen > capacity {
		return nil, fmt.Errorf("counters: implausible Tracked header (capacity=%d, entries=%d)", capacity, heapLen)
	}
	if uint64(r.Len()) < heapLen*16+8 {
		return nil, fmt.Errorf("counters: Tracked blob has %d bytes for %d heap entries", r.Len(), heapLen)
	}
	t := &Tracked{capacity: int(capacity), st: newSSStorage(int(heapLen))} // inner attached below, after its blob parses
	for i := range int(heapLen) {
		item, est := core.Item(r.U64()), r.I64()
		if t.st.lookup(item) >= 0 {
			return nil, fmt.Errorf("counters: duplicate item %d in Tracked blob", item)
		}
		// A push stays where it lands exactly when it is no lighter
		// than its parent, so checking that keeps stored positions.
		if i > 0 && est < t.st.hcnt[(i-1)/2] {
			return nil, fmt.Errorf("counters: Tracked blob heap order violated at entry %d", i)
		}
		t.st.push(item, est, 0)
	}
	innerLen := r.U64()
	if innerLen != uint64(r.Len()) {
		return nil, fmt.Errorf("counters: Tracked inner blob is %d bytes, header says %d", r.Len(), innerLen)
	}
	inner, err := decodeInner(r.Bytes(innerLen))
	if err != nil {
		return nil, fmt.Errorf("counters: Tracked inner blob: %w", err)
	}
	t.inner = inner
	return t, nil
}
