package quantile

import (
	"encoding/binary"
	"fmt"
	"math"

	"streamfreq/internal/wire"
)

// GK01 wire format, following the sketch-format conventions
// (little-endian, 4-byte magic, fixed-width header, bounds-checked
// payload before allocation):
//
//	[4]byte magic "GK01"
//	u64 float64 bits of epsilon
//	i64 n
//	u64 sinceCompress
//	u64 tuple count
//	per tuple: u64 float64 bits of v, i64 g, i64 delta
//
// sinceCompress is state, not presentation: the compress schedule depends
// on it, so it must survive a decode for checkpoint-then-replay to stay
// bit-identical to uninterrupted ingest (the recovery wall's contract).

const magicGK = "GK01"

// maxGKTuples bounds decoded summaries to catch corrupt headers before a
// huge allocation: 2^26 tuples is 1.5 GiB.
const maxGKTuples = 1 << 26

func errEmptyRange(lo, hi uint64) error {
	return fmt.Errorf("quantile: empty range [%d, %d]", lo, hi)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (g *GK) MarshalBinary() ([]byte, error) {
	le := binary.LittleEndian
	out := make([]byte, 0, 4+4*8+24*len(g.tuples))
	out = append(out, magicGK...)
	out = le.AppendUint64(out, math.Float64bits(g.epsilon))
	out = le.AppendUint64(out, uint64(g.n))
	out = le.AppendUint64(out, uint64(g.sinceCompress))
	out = le.AppendUint64(out, uint64(len(g.tuples)))
	for _, t := range g.tuples {
		out = le.AppendUint64(out, math.Float64bits(t.v))
		out = le.AppendUint64(out, uint64(t.g))
		out = le.AppendUint64(out, uint64(t.delta))
	}
	return out, nil
}

// DecodeGK parses a summary produced by (*GK).MarshalBinary.
func DecodeGK(data []byte) (*GK, error) {
	r := wire.NewReader(data)
	r.Magic(magicGK)
	epsilon, n, sinceCompress, ntuples := math.Float64frombits(r.U64()), r.I64(), r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !(epsilon > 0 && epsilon < 1) { // also rejects NaN
		return nil, fmt.Errorf("quantile: implausible GK epsilon %g", epsilon)
	}
	if n < 0 || ntuples > maxGKTuples || sinceCompress > math.MaxInt32 {
		return nil, fmt.Errorf("quantile: implausible GK header")
	}
	if uint64(r.Len()) != ntuples*24 {
		return nil, fmt.Errorf("quantile: GK payload %d bytes, want %d", r.Len(), ntuples*24)
	}
	g := &GK{
		epsilon:       epsilon,
		n:             n,
		sinceCompress: int(sinceCompress),
		tuples:        make([]tuple, ntuples),
	}
	for i := range g.tuples {
		g.tuples[i] = tuple{v: math.Float64frombits(r.U64()), g: r.I64(), delta: r.I64()}
		if math.IsNaN(g.tuples[i].v) { // Query's run-of-equal-values scan never advances past NaN
			return nil, fmt.Errorf("quantile: GK tuple %d holds NaN", i)
		}
	}
	return g, nil
}
