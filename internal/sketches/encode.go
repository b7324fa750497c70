package sketches

import (
	"encoding/binary"
	"fmt"

	"streamfreq/internal/wire"
)

// Binary serialization for sketches. Sketches are the summaries a
// distributed deployment ships between nodes (they merge by addition), so
// they get a compact, versioned, little-endian wire format:
//
//	[4]byte magic   ("CM01", "CS01", "CG01", "HI01")
//	header fields   (type-specific, fixed width)
//	counter payload (8 bytes per cell)
//
// Decoding validates the magic, bounds-checks all dimensions before
// allocating, and re-derives the hash functions from the stored seed, so
// a decoded sketch is bit-identical in behaviour to the original.

const (
	magicCM = "CM01"
	magicCS = "CS01"
	magicCG = "CG01"
	magicHI = "HI01"
)

// maxDim bounds decoded sketch dimensions to catch corrupt headers before
// a huge allocation: 2^28 cells is 2 GiB of counters.
const maxDim = 1 << 28

var le = binary.LittleEndian

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *CountMin) MarshalBinary() ([]byte, error) {
	flags := uint64(0)
	if c.neg {
		flags |= 1
	}
	if c.conservative {
		flags |= 2
	}
	out := make([]byte, 0, 4+5*8+8*c.depth*c.width)
	out = append(out, magicCM...)
	out = le.AppendUint64(out, flags)
	out = le.AppendUint64(out, uint64(c.depth))
	out = le.AppendUint64(out, uint64(c.width))
	out = le.AppendUint64(out, c.family.Seed())
	out = le.AppendUint64(out, uint64(c.n))
	return appendCells(out, c.rows...), nil
}

// appendCells appends every counter of rows, row by row.
func appendCells(out []byte, rows ...[]int64) []byte {
	for _, row := range rows {
		for _, v := range row {
			out = le.AppendUint64(out, uint64(v))
		}
	}
	return out
}

// readCells fills rows from r, row by row; the caller has checked that
// exactly that many bytes are left.
func readCells(r *wire.Reader, rows ...[]int64) {
	for _, row := range rows {
		for j := range row {
			row[j] = r.I64()
		}
	}
}

// DecodeCountMin parses a sketch produced by (*CountMin).MarshalBinary.
func DecodeCountMin(data []byte) (*CountMin, error) {
	r := wire.NewReader(data)
	r.Magic(magicCM)
	flags, depth, width, seed, n := r.U64(), r.U64(), r.U64(), r.U64(), r.I64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if depth == 0 || width == 0 || depth > maxDim/width {
		return nil, fmt.Errorf("sketches: implausible Count-Min dimensions %d×%d", depth, width)
	}
	// Validate the payload length before allocating the counter array, so
	// corrupt headers fail fast instead of triggering huge allocations.
	if uint64(r.Len()) != depth*width*8 {
		return nil, fmt.Errorf("sketches: Count-Min payload %d bytes, want %d", r.Len(), depth*width*8)
	}
	c := newCountMin(int(depth), int(width), seed, flags&2 != 0)
	c.neg = flags&1 != 0
	c.n = n
	readCells(r, c.rows...)
	return c, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *CountSketch) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 4+4*8+8*c.depth*c.width)
	out = append(out, magicCS...)
	out = le.AppendUint64(out, uint64(c.depth))
	out = le.AppendUint64(out, uint64(c.width))
	out = le.AppendUint64(out, c.family.Seed())
	out = le.AppendUint64(out, uint64(c.n))
	return appendCells(out, c.rows...), nil
}

// DecodeCountSketch parses a sketch produced by
// (*CountSketch).MarshalBinary.
func DecodeCountSketch(data []byte) (*CountSketch, error) {
	r := wire.NewReader(data)
	r.Magic(magicCS)
	depth, width, seed, n := r.U64(), r.U64(), r.U64(), r.I64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if depth == 0 || width == 0 || depth > maxDim/width {
		return nil, fmt.Errorf("sketches: implausible Count-Sketch dimensions %d×%d", depth, width)
	}
	if uint64(r.Len()) != depth*width*8 {
		return nil, fmt.Errorf("sketches: Count-Sketch payload %d bytes, want %d", r.Len(), depth*width*8)
	}
	c := NewCountSketch(int(depth), int(width), seed)
	c.n = n
	readCells(r, c.rows...)
	return c, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *CGT) MarshalBinary() ([]byte, error) {
	flags := uint64(0)
	if c.neg {
		flags |= 1
	}
	out := make([]byte, 0, 4+6*8+8*len(c.cells))
	out = append(out, magicCG...)
	out = le.AppendUint64(out, flags)
	out = le.AppendUint64(out, uint64(c.depth))
	out = le.AppendUint64(out, uint64(c.width))
	out = le.AppendUint64(out, uint64(c.universeBits))
	out = le.AppendUint64(out, c.family.Seed())
	out = le.AppendUint64(out, uint64(c.n))
	return appendCells(out, c.cells), nil
}

// DecodeCGT parses a sketch produced by (*CGT).MarshalBinary.
func DecodeCGT(data []byte) (*CGT, error) {
	r := wire.NewReader(data)
	r.Magic(magicCG)
	flags, depth, width, ubits, seed, n := r.U64(), r.U64(), r.U64(), r.U64(), r.U64(), r.I64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if depth == 0 || width == 0 || ubits == 0 || ubits > 64 || depth > maxDim/(width*(1+ubits)) {
		return nil, fmt.Errorf("sketches: implausible CGT dimensions %d×%d×%d", depth, width, ubits)
	}
	if uint64(r.Len()) != depth*width*(1+ubits)*8 {
		return nil, fmt.Errorf("sketches: CGT payload %d bytes, want %d", r.Len(), depth*width*(1+ubits)*8)
	}
	c := NewCGT(int(depth), int(width), uint(ubits), seed)
	c.neg = flags&1 != 0
	c.n = n
	readCells(r, c.cells)
	return c, nil
}

// MarshalBinary implements encoding.BinaryMarshaler. Each level sketch is
// nested as a length-prefixed blob.
func (h *Hierarchical) MarshalBinary() ([]byte, error) {
	var kind uint64
	switch h.name {
	case "CMH":
		kind = 0
	case "CSH":
		kind = 1
	default:
		return nil, fmt.Errorf("sketches: unknown hierarchy kind %q", h.name)
	}
	blobs := make([][]byte, len(h.levels))
	size := 4 + 5*8
	for i, s := range h.levels {
		m, ok := s.(interface{ MarshalBinary() ([]byte, error) })
		if !ok {
			return nil, fmt.Errorf("sketches: level sketch %T not marshalable", s)
		}
		blob, err := m.MarshalBinary()
		if err != nil {
			return nil, err
		}
		blobs[i] = blob
		size += 8 + len(blob)
	}
	out := make([]byte, 0, size)
	out = append(out, magicHI...)
	out = le.AppendUint64(out, kind)
	out = le.AppendUint64(out, uint64(h.bits))
	out = le.AppendUint64(out, uint64(h.universeBits))
	out = le.AppendUint64(out, uint64(h.n))
	out = le.AppendUint64(out, uint64(len(h.levels)))
	for _, blob := range blobs {
		out = le.AppendUint64(out, uint64(len(blob)))
		out = append(out, blob...)
	}
	return out, nil
}

// DecodeHierarchical parses a blob produced by
// (*Hierarchical).MarshalBinary.
func DecodeHierarchical(data []byte) (*Hierarchical, error) {
	r := wire.NewReader(data)
	r.Magic(magicHI)
	kind, bits, ubits, n, nlevels := r.U64(), r.U64(), r.U64(), r.I64(), r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// The level count must be the one the geometry implies: the frontier
	// walk enumerates 2^(ubits − (levels−1)·bits) top-level prefixes.
	if bits == 0 || bits > 16 || ubits == 0 || ubits > 64 || nlevels != (ubits+bits-1)/bits {
		return nil, fmt.Errorf("sketches: implausible hierarchy header")
	}
	h := &Hierarchical{
		bits:          uint(bits),
		universeBits:  uint(ubits),
		n:             n,
		maxCandidates: 1 << 20,
	}
	switch kind {
	case 0:
		h.name = "CMH"
	case 1:
		h.name = "CSH"
	default:
		return nil, fmt.Errorf("sketches: unknown hierarchy kind %d", kind)
	}
	for l := uint64(0); l < nlevels; l++ {
		blob := r.Bytes(r.U64())
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("sketches: hierarchy level %d: %w", l, err)
		}
		var (
			s   pointSketch
			err error
		)
		if h.name == "CMH" {
			s, err = DecodeCountMin(blob)
		} else {
			s, err = DecodeCountSketch(blob)
		}
		if err != nil {
			return nil, fmt.Errorf("sketches: hierarchy level %d: %w", l, err)
		}
		h.levels = append(h.levels, s)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return h, nil
}
