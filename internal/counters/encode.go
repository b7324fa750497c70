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

// Binary serialization for counter-based summaries: checkpoints,
// evicted tenants, and the blobs a coordinator pulls and merges. All
// but Tracked are written by one writer (encodeCounters) and read by
// one reader (decodeCounters), in one layout:
//
//	magic | ε as its 8 float64 bits (LC only) | uvarint header fields | uvarint entries
//	per entry: u64 item | uvarint count | uvarint err
//
// The header fields are k (Lossy Counting: its variant), n, and
// Frequent's decrement total. Items are hashes and keep fixed width;
// counts and errors are mostly small, so a counter takes ~10 bytes.
// The 01 formats earlier builds wrote, still read, hold the same
// fields as little-endian u64s, FQ01's entries without an err.
//
// For every format the reader refuses a budget outside (0, MaxBudget],
// an n of 2^63 or more, more entries than the budget (MaxBudget for
// Lossy Counting) or the bytes left can hold, before it allocates, a
// count or err above n (Update and Merge reach none: a merged count is
// c_a + c_b, or c plus the other side's minimum), a repeated item and
// trailing bytes; each decoder adds its summary's own rules. A decoded
// store holds the entries its blob carries, so a forged header costs
// O(len(data)), and grows as a constructed one does (nextCap).

// counterFormat is one counter summary's encoding: the magic written,
// the fixed-width predecessor still read, and the header's shape.
type counterFormat struct {
	magic, legacy string
	fields        int    // header fields before the entry count
	eps           bool   // ε follows the magic, and the first field is no budget (Lossy Counting)
	legacyEntry   uint64 // a legacy entry's bytes: 24, or 16 without an err (FQ01)
}

var (
	formatFQ = &counterFormat{magic: "FQ02", legacy: "FQ01", fields: 3, legacyEntry: 16}
	formatSS = &counterFormat{magic: "SS02", legacy: "SS01", fields: 2, legacyEntry: 24}
	formatLC = &counterFormat{magic: "LC02", legacy: "LC01", fields: 2, eps: true, legacyEntry: 24}
	formatSL = &counterFormat{magic: "SL02", legacy: "SL01", fields: 2, legacyEntry: 24}
	le       = binary.LittleEndian
)

// counterHeader is what a counter blob's header says, the entry count
// checked against its budget and its bytes.
type counterHeader struct {
	eps     float64
	k, n    uint64 // k is Lossy Counting's variant
	decs    uint64 // Frequent's decrement total
	entries int
}

// encodeCounters is the one writer of counter entries: f's magic, ε
// when f has one, the header fields and the entry count as uvarints,
// then cnt entries, entry(i) giving the i-th item, count and err. A
// first pass sizes the blob, so it is allocated once at its exact
// length: an evicted tenant keeps it as its whole state.
func encodeCounters(f *counterFormat, eps float64, header []uint64, cnt int, entry func(i int) (core.Item, int64, int64)) []byte {
	size := len(f.magic) + uvarintLen(uint64(cnt))
	if f.eps {
		size += 8
	}
	for _, v := range header {
		size += uvarintLen(v)
	}
	for i := range cnt {
		_, count, err := entry(i)
		size += 8 + uvarintLen(uint64(count)) + uvarintLen(uint64(err))
	}
	out := append(make([]byte, 0, size), f.magic...)
	if f.eps {
		out = le.AppendUint64(out, math.Float64bits(eps))
	}
	for _, v := range header {
		out = binary.AppendUvarint(out, v)
	}
	out = binary.AppendUvarint(out, uint64(cnt))
	for i := range cnt {
		item, count, err := entry(i)
		out = binary.AppendUvarint(binary.AppendUvarint(le.AppendUint64(out, uint64(item)), uint64(count)), uint64(err))
	}
	return out
}

// uvarintLen is the length of x's encoding/binary uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// decodeCounters is the one reader of counter entries: a blob in f's
// magic or, every integer a u64, its legacy one, with the checks the
// file comment lists. init makes the summary's own header checks and
// allocates it, returning it and the table its entries go into; add
// makes the summary's own entry checks and stores an entry.
func decodeCounters[S any](data []byte, f *counterFormat, init func(h counterHeader) (S, *nodeTable, error), add func(s S, item core.Item, count, err int64) error) (s S, _ error) {
	r, width := wire.NewReader(data), uint64(10) // an 02 entry takes at least 8 + 1 + 1 bytes
	fixed := len(data) >= 4 && string(data[:4]) == f.legacy
	if fixed {
		r.Magic(f.legacy)
		width = f.legacyEntry
	} else if r.Magic(f.magic); len(data) >= 4 && r.Err() != nil {
		return s, fmt.Errorf("counters: blob magic %q is neither %s nor %s, the encodings of this summary this build reads: another version of the program wrote it, or another summary", data[:4], f.magic, f.legacy)
	}
	field := r.Uvarint
	if fixed {
		field = r.U64
	}
	var h counterHeader
	if f.eps {
		h.eps = math.Float64frombits(r.U64())
	}
	h.k, h.n = field(), field()
	if f.fields == 3 {
		h.decs = field()
	}
	cnt := field()
	if err := r.Err(); err != nil {
		return s, err
	}
	if h.n > math.MaxInt64 || cnt > MaxBudget || !f.eps && (h.k == 0 || h.k > MaxBudget || cnt > h.k) {
		return s, fmt.Errorf("counters: implausible %s header (k=%d, n=%d, entries=%d)", f.magic, h.k, h.n, cnt)
	}
	if left := uint64(r.Len()); cnt > left/width {
		return s, fmt.Errorf("counters: %s payload of %d bytes cannot hold %d entries", f.magic, left, cnt)
	}
	h.entries = int(cnt)
	s, t, err := init(h)
	for ; err == nil && cnt > 0; cnt-- {
		item, count, e := core.Item(r.U64()), field(), uint64(0)
		if width != 16 { // every entry but FQ01's has an err
			e = field()
		}
		switch {
		case r.Err() != nil:
			err = r.Err() // cut short: report that, not the zeros read after it
		case count > h.n || e > h.n:
			err = fmt.Errorf("counters: %s entry (count=%d, err=%d) past n=%d", f.magic, count, e, h.n)
		case t.lookup(item) >= 0:
			err = fmt.Errorf("counters: duplicate item %d in %s blob", item, f.magic)
		default:
			err = add(s, item, int64(count), int64(e))
		}
	}
	if err == nil && r.Done() == nil {
		return s, nil
	}
	return *new(S), cmp.Or(err, r.Err())
}

// MarshalBinary implements encoding.BinaryMarshaler, writing FQ02.
// Logical counts are stored (the offset is folded in), so the decoded
// summary is logically identical with offset zero. Entries are written
// in heap order (store.go says why the sift must not change), so
// encode → decode → encode is byte-identical.
func (f *Frequent) MarshalBinary() ([]byte, error) {
	return encodeCounters(formatFQ, 0, []uint64{uint64(f.k), uint64(f.n), uint64(f.decs)}, len(f.st.heap), func(i int) (core.Item, int64, int64) {
		return f.st.nodes[f.st.heap[i]].item, f.st.hcnt[i] - f.offset, 0
	}), nil
}

// DecodeFrequent parses a summary produced by (*Frequent).MarshalBinary
// (FQ02), or by an earlier build's (FQ01). Each decrement takes the same
// amount from k+1 counters, so (k+1)·decrements plus the counts is at
// most n: the decrement total, which Query adds to every estimate, is
// at most n/(k+1), and each count plus it at most n.
func DecodeFrequent(data []byte) (*Frequent, error) {
	return decodeCounters(data, formatFQ, func(h counterHeader) (*Frequent, *nodeTable, error) {
		if h.decs > h.n/(h.k+1) {
			return nil, nil, fmt.Errorf("counters: Frequent decrement total %d past n/(k+1) = %d", h.decs, h.n/(h.k+1))
		}
		f := &Frequent{k: int(h.k), n: int64(h.n), decs: int64(h.decs), st: newSSStorage(h.entries)}
		return f, &f.st.nodeTable, nil
	}, func(f *Frequent, item core.Item, count, errv int64) error {
		if count <= 0 || errv != 0 || count > f.n-f.decs {
			return fmt.Errorf("counters: invalid Frequent entry (count=%d err=%d, n=%d, decrements=%d)", count, errv, f.n, f.decs)
		}
		f.st.push(item, count, 0)
		return nil
	})
}

// MarshalBinary implements encoding.BinaryMarshaler: SS02, in heap order.
func (s *SpaceSavingHeap) MarshalBinary() ([]byte, error) {
	return encodeCounters(formatSS, 0, []uint64{uint64(s.k), uint64(s.n)}, len(s.st.heap), func(i int) (core.Item, int64, int64) {
		nd := &s.st.nodes[s.st.heap[i]]
		return nd.item, s.st.hcnt[i], nd.err
	}), nil
}

// DecodeSpaceSavingHeap parses a summary produced by
// (*SpaceSavingHeap).MarshalBinary (SS02), or by an earlier build's
// (SS01). An entry's err is at most its count.
func DecodeSpaceSavingHeap(data []byte) (*SpaceSavingHeap, error) {
	return decodeCounters(data, formatSS, func(h counterHeader) (*SpaceSavingHeap, *nodeTable, error) {
		s := &SpaceSavingHeap{k: int(h.k), n: int64(h.n), st: newSSStorage(h.entries)}
		return s, &s.st.nodeTable, nil
	}, func(s *SpaceSavingHeap, item core.Item, count, errv int64) error {
		if errv > count {
			return fmt.Errorf("counters: invalid SpaceSaving entry (count=%d err=%d)", count, errv)
		}
		s.st.push(item, count, errv)
		return nil
	})
}

// MarshalBinary implements encoding.BinaryMarshaler, writing LC02:
// each entry's observed count and Δ, in ascending item order, not the
// store's, which depends on history, so logically equal summaries
// produce byte-equal blobs, the property the crash-recovery tests (and
// any content-addressed checkpoint store) compare on.
func (l *LossyCounting) MarshalBinary() ([]byte, error) {
	entries := make([]counter, len(l.st.heap))
	for i, id := range l.st.heap {
		nd := &l.st.nodes[id]
		entries[i] = counter{nd.item, l.st.hcnt[i] - nd.err, nd.err}
	}
	slices.SortFunc(entries, func(a, b counter) int { return cmp.Compare(a.item, b.item) })
	return encodeCounters(formatLC, l.epsilon, []uint64{uint64(l.variant), uint64(l.n)}, len(entries), func(i int) (core.Item, int64, int64) {
		return entries[i].item, entries[i].count, entries[i].err
	}), nil
}

// DecodeLossyCounting parses a summary produced by
// (*LossyCounting).MarshalBinary (LC02), or by an earlier build's
// (LC01). ε must pass checkEpsilon, the bound NewLossyCounting applies.
// Every state Update and Merge reach has 0 < count and
// 0 ≤ Δ ≤ b − 1 (merged Δs add, and ⌈a⌉ + ⌈c⌉ ≤ ⌈a + c⌉ + 1), and
// count + Δ, the entry's heap key, must not overflow.
func DecodeLossyCounting(data []byte) (*LossyCounting, error) {
	return decodeCounters(data, formatLC, func(h counterHeader) (*LossyCounting, *nodeTable, error) {
		if err := checkEpsilon(h.eps); err != nil {
			return nil, nil, err
		}
		if h.k > 1 {
			return nil, nil, fmt.Errorf("counters: implausible LossyCounting variant %d", h.k)
		}
		l := NewLossyCounting(h.eps, LCVariant(h.k))
		l.n, l.st = int64(h.n), newSSStorage(h.entries)
		l.bucket = max((l.n+l.width-1)/l.width, 1)
		return l, &l.st.nodeTable, nil
	}, func(l *LossyCounting, item core.Item, count, delta int64) error {
		if count <= 0 || delta > l.bucket-1 || count > math.MaxInt64-delta {
			return fmt.Errorf("counters: invalid LossyCounting entry (count=%d Δ=%d, bucket %d)", count, delta, l.bucket)
		}
		l.st.push(item, count+delta, delta)
		return nil
	})
}

// MarshalBinary implements encoding.BinaryMarshaler for the
// Stream-Summary variant, writing SL02. Entries are written in
// structural order — buckets ascending by count, entries within a
// bucket from the head — and DecodeSpaceSavingList rebuilds exactly
// that linkage, so encode→decode→encode is byte-identical and the
// decoded structure is validate-clean like a Clone.
func (s *SpaceSavingList) MarshalBinary() ([]byte, error) {
	ids := make([]int32, 0, len(s.t.nodes))
	for b := s.min; b >= 0; b = s.buckets[b].next {
		for e := s.buckets[b].head; e >= 0; e = s.links[e].next {
			ids = append(ids, e)
		}
	}
	return encodeCounters(formatSL, 0, []uint64{uint64(s.k), uint64(s.n)}, len(ids), func(i int) (core.Item, int64, int64) {
		return s.t.nodes[ids[i]].item, s.count(ids[i]), s.t.nodes[ids[i]].err
	}), nil
}

// DecodeSpaceSavingList parses a summary produced by
// (*SpaceSavingList).MarshalBinary (SL02), or by an earlier build's
// (SL01). Counts must be positive and non-decreasing (the structural
// order MarshalBinary emits), so a shuffled or hand-forged blob is
// rejected, and an err at most its count; each entry is linked as it
// is read, after the last one in the top bucket or opening a new top
// bucket, which rebuilds the written order exactly.
func DecodeSpaceSavingList(data []byte) (*SpaceSavingList, error) {
	return decodeCounters(data, formatSL, func(h counterHeader) (*SpaceSavingList, *nodeTable, error) {
		s := newSpaceSavingList(int(h.k), h.entries)
		s.n = int64(h.n)
		return s, &s.t, nil
	}, func(s *SpaceSavingList, item core.Item, count, errv int64) error {
		last := int32(len(s.t.nodes)) - 1
		if count <= 0 || errv > count || last >= 0 && count < s.count(last) {
			return fmt.Errorf("counters: invalid SpaceSavingList entry (count=%d err=%d), or out of count order", count, errv)
		}
		s.link(s.t.newNode(item, errv), count, last)
		return nil
	})
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
	out = append(out, "TK01"...)
	out = le.AppendUint64(out, uint64(t.capacity))
	out = le.AppendUint64(out, uint64(len(t.st.heap)))
	for i, id := range t.st.heap {
		out = le.AppendUint64(out, uint64(t.st.nodes[id].item))
		out = le.AppendUint64(out, uint64(t.st.hcnt[i]))
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
	r.Magic("TK01")
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
