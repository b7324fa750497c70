package counters

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"streamfreq/internal/core"
	"streamfreq/internal/wire"
)

// Binary serialization for counter-based summaries, used when shipping
// per-shard summaries to a coordinator for merging. Formats are versioned
// by a 4-byte magic and little-endian throughout.

const (
	magicFQ = "FQ01"
	magicSS = "SS01"
	magicLC = "LC01"
	magicSL = "SL01"
	magicTK = "TK01"
)

// maxEntries bounds decoded entry counts against corrupt headers.
const maxEntries = 1 << 22

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
	if k == 0 || k > maxEntries || cnt > k {
		return nil, fmt.Errorf("counters: implausible Frequent header (k=%d, entries=%d)", k, cnt)
	}
	// Validate the payload length before allocating k-sized structures.
	if uint64(r.Len()) != cnt*16 {
		return nil, fmt.Errorf("counters: Frequent payload %d bytes, want %d", r.Len(), cnt*16)
	}
	f := NewFrequent(int(k))
	f.n = n
	f.decs = decs
	for i := uint64(0); i < cnt; i++ {
		item, count := core.Item(r.U64()), r.I64()
		if count <= 0 {
			return nil, fmt.Errorf("counters: non-positive stored count %d", count)
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

// MarshalBinary implements encoding.BinaryMarshaler. Entries are
// written in heap-structural order (slab.go says why the sift must not
// change).
func (s *SpaceSavingHeap) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 4+3*8+24*len(s.st.heap))
	out = append(out, magicSS...)
	out = le.AppendUint64(out, uint64(s.k))
	out = le.AppendUint64(out, uint64(s.n))
	out = le.AppendUint64(out, uint64(len(s.st.heap)))
	for _, id := range s.st.heap {
		nd := &s.st.nodes[id]
		out = le.AppendUint64(out, uint64(nd.item))
		out = le.AppendUint64(out, uint64(nd.count))
		out = le.AppendUint64(out, uint64(nd.err))
	}
	return out, nil
}

// DecodeSpaceSavingHeap parses a summary produced by
// (*SpaceSavingHeap).MarshalBinary.
func DecodeSpaceSavingHeap(data []byte) (*SpaceSavingHeap, error) {
	return decodeSpaceSavingHeap(data, nil)
}

// DecodeSpaceSaving parses an SS01 blob into slab-drawn storage — the
// reload half of the multi-tenant table's evict/reload cycle, so a
// tenant coming back from its compact blob lands in the same arena it
// left.
func (sl *Slab) DecodeSpaceSaving(data []byte) (*SpaceSavingHeap, error) {
	return decodeSpaceSavingHeap(data, sl)
}

func decodeSpaceSavingHeap(data []byte, sl *Slab) (*SpaceSavingHeap, error) {
	r := wire.NewReader(data)
	r.Magic(magicSS)
	k, n, cnt := r.U64(), r.I64(), r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if k == 0 || k > maxEntries || cnt > k {
		return nil, fmt.Errorf("counters: implausible SpaceSaving header (k=%d, entries=%d)", k, cnt)
	}
	if uint64(r.Len()) != cnt*24 {
		return nil, fmt.Errorf("counters: SpaceSaving payload %d bytes, want %d", r.Len(), cnt*24)
	}
	var s *SpaceSavingHeap
	if sl != nil {
		s = sl.NewSpaceSaving(int(k))
	} else {
		s = NewSpaceSavingHeap(int(k))
	}
	s.n = n
	for i := uint64(0); i < cnt; i++ {
		item, count, errv := core.Item(r.U64()), r.I64(), r.I64()
		if count < 0 || errv < 0 || errv > count {
			s.Release()
			return nil, fmt.Errorf("counters: invalid SpaceSaving entry (count=%d err=%d)", count, errv)
		}
		if s.st.lookup(item) >= 0 {
			s.Release()
			return nil, fmt.Errorf("counters: duplicate items in SpaceSaving blob")
		}
		s.st.push(item, count, errv)
	}
	if err := r.Done(); err != nil {
		s.Release()
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
	if !(eps > 0 && eps < 1) || variant > 1 || cnt > maxEntries {
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
	out := make([]byte, 0, 4+3*8+24*s.size)
	out = append(out, magicSL...)
	out = le.AppendUint64(out, uint64(s.k))
	out = le.AppendUint64(out, uint64(s.n))
	out = le.AppendUint64(out, uint64(s.size))
	for b := s.min; b != nil; b = b.next {
		for e := b.head; e != nil; e = e.next {
			out = le.AppendUint64(out, uint64(e.item))
			out = le.AppendUint64(out, uint64(b.count))
			out = le.AppendUint64(out, uint64(e.err))
		}
	}
	return out, nil
}

// DecodeSpaceSavingList parses a summary produced by
// (*SpaceSavingList).MarshalBinary, reconstructing the bucket list
// directly: consecutive entries sharing a count share a bucket, and
// counts must be non-decreasing (the structural order MarshalBinary
// emits), so a shuffled or hand-forged blob is rejected.
func DecodeSpaceSavingList(data []byte) (*SpaceSavingList, error) {
	r := wire.NewReader(data)
	r.Magic(magicSL)
	k, n, cnt := r.U64(), r.I64(), r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if k == 0 || k > maxEntries || cnt > k {
		return nil, fmt.Errorf("counters: implausible SpaceSavingList header (k=%d, entries=%d)", k, cnt)
	}
	if uint64(r.Len()) != cnt*24 {
		return nil, fmt.Errorf("counters: SpaceSavingList payload %d bytes, want %d", r.Len(), cnt*24)
	}
	s := NewSpaceSavingList(int(k))
	s.n = n
	s.size = int(cnt)
	var curB *ssBucket
	var lastE *ssEntry
	for i := uint64(0); i < cnt; i++ {
		item, count, errv := core.Item(r.U64()), r.I64(), r.I64()
		if count <= 0 || errv < 0 || errv > count {
			return nil, fmt.Errorf("counters: invalid SpaceSavingList entry (count=%d err=%d)", count, errv)
		}
		if curB == nil || count != curB.count {
			if curB != nil && count < curB.count {
				return nil, fmt.Errorf("counters: SpaceSavingList blob buckets out of order (%d after %d)", count, curB.count)
			}
			nb := &ssBucket{count: count, prev: curB}
			if curB != nil {
				curB.next = nb
			} else {
				s.min = nb
			}
			curB, lastE = nb, nil
		}
		if _, dup := s.index[item]; dup {
			return nil, fmt.Errorf("counters: duplicate item in SpaceSavingList blob")
		}
		e := &ssEntry{item: item, err: errv, bucket: curB, prev: lastE}
		if lastE != nil {
			lastE.next = e
		} else {
			curB.head = e
		}
		s.index[item] = e
		lastE = e
	}
	if err := r.Done(); err != nil {
		return nil, err
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
	if capacity == 0 || capacity > maxEntries || heapLen > capacity {
		return nil, fmt.Errorf("counters: implausible Tracked header (capacity=%d, entries=%d)", capacity, heapLen)
	}
	if uint64(r.Len()) < heapLen*16+8 {
		return nil, fmt.Errorf("counters: Tracked blob has %d bytes for %d heap entries", r.Len(), heapLen)
	}
	t := NewTracked(nil, int(capacity)) // inner attached below, after its blob parses
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
