package window

import (
	"encoding/binary"
	"fmt"

	"streamfreq/internal/counters"
	"streamfreq/internal/wire"
)

// WN01 is the windowed summary's wire format, used by checkpoints, the
// /summary endpoint, and the cluster merge exactly like the flat
// formats. Layout, little-endian after the 4-byte magic:
//
//	u64 size | u64 blocks | u64 k | u64 n | u64 coverage
//	u64 head (block clock mod B+1) | u64 curFill
//	u64 liveBlocks
//	per live block, ascending ring index:
//	  u64 ring index | u64 blob length | SS02 blob
//
// Only the live ring is framed — expired blocks are not durable state —
// and the block blobs are the per-block summaries' own SS02 encoding,
// whose decode reproduces the exact heap layout, so encode → decode →
// encode is byte-identical and "bit-identical via Encode" covers the
// windowed summary the way it covers the flat ones. A block written by
// an earlier build as SS01 still decodes and re-encodes as SS02.
// liveCount is recomputed from the decoded blocks rather than trusted
// from the wire.

const (
	magicWN = "WN01"
	// maxWNBlocks/maxWNCounters/maxWNSize bound a corrupt header's
	// allocations. NewWindowed enforces the same bounds at construction,
	// so the decoder never rejects a blob MarshalBinary legally produced;
	// real configurations use tens of blocks and thousands of counters.
	maxWNBlocks   = 1 << 16
	maxWNCounters = counters.MaxBudget // the per-block decode cap
	maxWNSize     = int64(1) << 40
	// maxWNBlob bounds one block blob against a corrupt length field.
	maxWNBlob = 1 << 28
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Windowed) MarshalBinary() ([]byte, error) {
	type block struct {
		idx  int
		blob []byte
	}
	var live []block
	size := 4 + 8*8
	for i, b := range s.ring.slots {
		if b == nil {
			continue
		}
		blob, err := b.(*counters.SpaceSavingHeap).MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("window: encoding block %d: %w", i, err)
		}
		live = append(live, block{i, blob})
		size += 2*8 + len(blob)
	}
	le := binary.LittleEndian
	out := make([]byte, 0, size)
	out = append(out, magicWN...)
	for _, v := range []int64{int64(s.size), int64(s.blocks), int64(s.k), s.n, s.coverage,
		int64(s.ring.slot(s.cur)), int64(s.curFill), int64(len(live))} {
		out = le.AppendUint64(out, uint64(v))
	}
	for _, b := range live {
		out = le.AppendUint64(out, uint64(b.idx))
		out = le.AppendUint64(out, uint64(len(b.blob)))
		out = append(out, b.blob...)
	}
	return out, nil
}

// DecodeWindowed parses a summary produced by (*Windowed).MarshalBinary,
// validating the geometry and every block blob so a forged or corrupt
// header comes back as an error, never a panic or a runaway allocation.
func DecodeWindowed(data []byte) (*Windowed, error) {
	r := wire.NewReader(data)
	r.Magic(magicWN)
	size, blocks, k := r.U64(), r.U64(), r.U64()
	n, coverage := r.I64(), r.I64()
	head, curFill, liveBlocks := r.U64(), r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if size == 0 || blocks == 0 || blocks > maxWNBlocks || size%blocks != 0 ||
		k == 0 || k > maxWNCounters || int64(size) < 0 || int64(size) > maxWNSize {
		return nil, fmt.Errorf("window: implausible geometry (W=%d B=%d k=%d)", size, blocks, k)
	}
	blockLen := size / blocks
	ringLen := blocks + 1 // uint64 arithmetic; cast below once validated
	if head >= ringLen || curFill >= blockLen || liveBlocks == 0 || liveBlocks > ringLen {
		return nil, fmt.Errorf("window: implausible ring state (head=%d fill=%d live=%d)", head, curFill, liveBlocks)
	}
	if n < 0 || coverage < int64(size) {
		return nil, fmt.Errorf("window: implausible accounting (n=%d coverage=%d)", n, coverage)
	}
	s := newWindowed(int(size), int(blocks), int(k), coverage)
	// WN01 keeps the block clock modulo B+1 (the head slot); the clock
	// restarts there, and each slot holds the block its age implies.
	s.cur, s.curFill, s.n = int64(head), int(curFill), n
	prev := -1
	for i := uint64(0); i < liveBlocks; i++ {
		idx, blobLen := r.U64(), r.U64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if idx >= ringLen || int(idx) <= prev {
			return nil, fmt.Errorf("window: block indices out of order (index %d after %d)", idx, prev)
		}
		prev = int(idx)
		if blobLen > maxWNBlob || blobLen > uint64(r.Len()) {
			return nil, fmt.Errorf("window: implausible block blob length %d (block %d)", blobLen, idx)
		}
		ss, err := counters.DecodeSpaceSavingHeap(r.Bytes(blobLen))
		if err != nil {
			return nil, fmt.Errorf("window: block %d: %w", idx, err)
		}
		if ss.K() != int(k) {
			return nil, fmt.Errorf("window: block %d has k=%d, header says %d", idx, ss.K(), k)
		}
		s.ring.slots[idx] = ss
		s.ring.blockNo[idx] = s.cur - int64((head+ringLen-idx)%ringLen)
		s.liveCount += ss.N()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if s.ring.slots[head] == nil {
		return nil, fmt.Errorf("window: current block (ring %d) missing from blob", head)
	}
	if n < s.liveCount {
		return nil, fmt.Errorf("window: stream length %d below live count %d", n, s.liveCount)
	}
	return s, nil
}
