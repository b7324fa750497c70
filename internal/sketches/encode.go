package sketches

import (
	"encoding/binary"
	"fmt"

	"streamfreq/internal/wire"
)

// Binary serialization for sketches. Sketches are the summaries a
// distributed deployment ships between nodes (they merge by addition), so
// they get a compact, versioned, little-endian wire format. The three
// flat sketches write their counter matrix in one layout:
//
//	[4]byte magic   ("CM01", "CS01", "CG01")
//	header fields   (type-specific u64s: flags, depth, width, universe bits, seed, n)
//	counter payload (8 bytes per cell, row by row)
//
// and HI01 nests one CM01 or CS01 blob per level behind its own header.
// Decoding validates the magic, applies CheckSize's bound (2^28
// counters, the one the constructors apply, so every sketch they build
// round-trips) to the header's dimensions, and checks that the payload
// holds exactly their cells before allocating; it re-derives the hash
// functions from the stored seed, so a decoded sketch is bit-identical
// in behaviour to the original.

const (
	magicCM = "CM01"
	magicCS = "CS01"
	magicCG = "CG01"
	magicHI = "HI01"
)

var le = binary.LittleEndian

// marshal writes magic, the header words, then every cell: the layout
// CM01, CS01 and CG01 share, each word a little-endian u64.
func (m *matrix) marshal(magic string, header ...uint64) []byte {
	out := make([]byte, 0, len(magic)+8*(len(header)+len(m.cells)))
	out = append(out, magic...)
	for _, v := range header {
		out = le.AppendUint64(out, v)
	}
	for _, v := range m.cells {
		out = le.AppendUint64(out, uint64(v))
	}
	return out
}

// decodeMatrix reads a matrix's cells, the rest of r, once the header r
// has read is whole, its dimensions pass CheckSize and the payload holds
// exactly their cells, so a forged header fails before it allocates.
// signed is newMatrix's: whether the family has sign hashes.
func decodeMatrix(r *wire.Reader, depth, width, stride, seed uint64, n int64, signed bool) (matrix, error) {
	if err := r.Err(); err != nil {
		return matrix{}, err
	}
	if err := CheckSize(depth, width, stride); err != nil {
		return matrix{}, err
	}
	if want := 8 * depth * width * stride; uint64(r.Len()) != want {
		return matrix{}, fmt.Errorf("sketches: payload of %d bytes, want %d", r.Len(), want)
	}
	m := newMatrix(int(depth), int(width), int(stride), seed, signed)
	m.n = n
	for i := range m.cells {
		m.cells[i] = r.I64()
	}
	return m, nil
}

// negFlag is bit 0 of CM01's and CG01's flags word: a deletion has been
// applied.
func (m *matrix) negFlag() uint64 {
	if m.neg {
		return 1
	}
	return 0
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *CountMin) MarshalBinary() ([]byte, error) {
	flags := c.negFlag()
	if c.conservative {
		flags |= 2
	}
	return c.marshal(magicCM, flags, uint64(c.depth), uint64(c.width), c.family.Seed(), uint64(c.n)), nil
}

// DecodeCountMin parses a sketch produced by (*CountMin).MarshalBinary.
func DecodeCountMin(data []byte) (*CountMin, error) {
	r := wire.NewReader(data)
	r.Magic(magicCM)
	flags, depth, width, seed, n := r.U64(), r.U64(), r.U64(), r.U64(), r.I64()
	m, err := decodeMatrix(r, depth, width, 1, seed, n, false)
	if err != nil {
		return nil, err
	}
	m.neg = flags&1 != 0
	return &CountMin{m, flags&2 != 0}, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *CountSketch) MarshalBinary() ([]byte, error) {
	return c.marshal(magicCS, uint64(c.depth), uint64(c.width), c.family.Seed(), uint64(c.n)), nil
}

// DecodeCountSketch parses a sketch produced by
// (*CountSketch).MarshalBinary.
func DecodeCountSketch(data []byte) (*CountSketch, error) {
	r := wire.NewReader(data)
	r.Magic(magicCS)
	depth, width, seed, n := r.U64(), r.U64(), r.U64(), r.I64()
	m, err := decodeMatrix(r, depth, width, 1, seed, n, true)
	if err != nil {
		return nil, err
	}
	return &CountSketch{m}, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *CGT) MarshalBinary() ([]byte, error) {
	return c.marshal(magicCG, c.negFlag(), uint64(c.depth), uint64(c.width), uint64(c.universeBits), c.family.Seed(), uint64(c.n)), nil
}

// DecodeCGT parses a sketch produced by (*CGT).MarshalBinary.
func DecodeCGT(data []byte) (*CGT, error) {
	r := wire.NewReader(data)
	r.Magic(magicCG)
	flags, depth, width, ubits, seed, n := r.U64(), r.U64(), r.U64(), r.U64(), r.U64(), r.I64()
	if r.Err() == nil && (ubits == 0 || ubits > 64) {
		return nil, fmt.Errorf("sketches: implausible CGT universe of %d bits", ubits)
	}
	m, err := decodeMatrix(r, depth, width, 1+ubits, seed, n, false)
	if err != nil {
		return nil, err
	}
	m.neg = flags&1 != 0
	return &CGT{m, uint(ubits)}, nil
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
