package core

import (
	"encoding/binary"
	"fmt"

	"streamfreq/internal/wire"
)

// Binary serialization for the Tracked wrapper, completing the registry's
// wire-format coverage (the CM and CS roster entries are Tracked
// sketches): the persistence layer checkpoints whatever summary the
// server runs, so every registry algorithm must round-trip through
// bytes. The format nests the inner sketch's own blob, dispatched on
// decode by a caller-supplied decoder — core cannot name the sketch
// types without an import cycle, and the root package already owns the
// magic→decoder registry.

// magicTK identifies a Tracked blob.
const magicTK = "TK01"

// maxTrackedEntries bounds decoded heap sizes against corrupt headers.
const maxTrackedEntries = 1 << 22

// MarshalBinary implements encoding.BinaryMarshaler. The heap is stored
// in array order, which DecodeTracked reproduces position for position,
// so encode→decode→encode is byte-identical. The inner summary must
// itself implement encoding.BinaryMarshaler.
func (t *Tracked) MarshalBinary() ([]byte, error) {
	m, ok := t.inner.(interface{ MarshalBinary() ([]byte, error) })
	if !ok {
		return nil, fmt.Errorf("core: Tracked inner %s has no binary encoding", t.inner.Name())
	}
	innerBlob, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	out := make([]byte, 0, 4+2*8+16*len(t.heap)+8+len(innerBlob))
	out = append(out, magicTK...)
	out = le.AppendUint64(out, uint64(t.capacity))
	out = le.AppendUint64(out, uint64(len(t.heap)))
	for _, e := range t.heap {
		out = le.AppendUint64(out, uint64(e.item))
		out = le.AppendUint64(out, uint64(e.est))
	}
	out = le.AppendUint64(out, uint64(len(innerBlob)))
	return append(out, innerBlob...), nil
}

// DecodeTracked parses a blob produced by (*Tracked).MarshalBinary,
// decoding the nested inner-summary blob with decodeInner (the root
// package's magic dispatch). The heap array is rebuilt at its stored
// positions and validated as a min-heap, so a corrupt blob is rejected
// rather than yielding a tracker that silently mis-evicts.
func DecodeTracked(data []byte, decodeInner func([]byte) (Summary, error)) (*Tracked, error) {
	r := wire.NewReader(data)
	r.Magic(magicTK)
	capacity, heapLen := r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if capacity == 0 || capacity > maxTrackedEntries || heapLen > capacity {
		return nil, fmt.Errorf("core: implausible Tracked header (capacity=%d, entries=%d)", capacity, heapLen)
	}
	if uint64(r.Len()) < heapLen*16+8 {
		return nil, fmt.Errorf("core: Tracked blob has %d bytes for %d heap entries", r.Len(), heapLen)
	}
	t := NewTracked(nil, int(capacity)) // inner attached below, after its blob parses
	t.heap = make(tkHeap, heapLen)
	for i := range t.heap {
		e := &tkEntry{item: Item(r.U64()), est: r.I64(), idx: i}
		if _, dup := t.index[e.item]; dup {
			return nil, fmt.Errorf("core: duplicate item %d in Tracked blob", e.item)
		}
		t.heap[i] = e
		t.index[e.item] = e
		if i > 0 && t.heap.less(i, (i-1)/2) {
			return nil, fmt.Errorf("core: Tracked blob heap order violated at entry %d", i)
		}
	}
	innerLen := r.U64()
	if innerLen != uint64(r.Len()) {
		return nil, fmt.Errorf("core: Tracked inner blob is %d bytes, header says %d", r.Len(), innerLen)
	}
	inner, err := decodeInner(r.Bytes(innerLen))
	if err != nil {
		return nil, fmt.Errorf("core: Tracked inner blob: %w", err)
	}
	t.inner = inner
	return t, nil
}
