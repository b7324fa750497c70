// Package sketches implements the sketch-based frequent-items algorithms
// compared by the paper: the Count-Min sketch (plain and conservative-
// update), the Count Sketch of Charikar, Chen & Farach-Colton, dyadic
// hierarchical wrappers over both (the paper's CMH and the CS hierarchy),
// and the Combinatorial Group Testing (CGT) sketch.
//
// Sketches are linear projections of the frequency vector: they support
// deletions (the turnstile model), merging by addition, and stream
// differencing by subtraction — capabilities no counter-based summary
// has, bought at the price of randomization and larger constants.
//
// The three flat sketches project into one structure, the counter
// matrix: depth rows of width buckets, each bucket one counter wide
// (CGT's: one per item bit besides the total), in one allocation. The
// matrix owns the allocation, the copy behind every Clone, the addition
// behind every Merge and Subtract, the cell codec, and the one size
// bound (CheckSize) that the constructors and the decoders apply. The
// sketches differ only in how an arrival writes a bucket and how an
// estimate reads one.
package sketches

import (
	"fmt"
	"math"
	"slices"

	"streamfreq/internal/core"
	"streamfreq/internal/hash"
)

// matrix is a sketch's counter array: depth rows × width buckets ×
// stride counters, cells[(i·width + j)·stride] the first counter of
// row i's bucket j. Beside the cells it holds the rows' hash family,
// the stream length n and whether a deletion has been seen.
type matrix struct {
	cells                []int64
	family               *hash.Family
	depth, width, stride int
	n                    int64
	neg                  bool // a negative count, or a Subtract, has been applied
}

// maxCells bounds a sketch's counters: 2^28 cells is 2 GiB.
const maxCells = 1 << 28

// CheckSize reports whether a sketch of depth rows and width buckets,
// each bucket stride counters wide, fits the one size bound every
// constructor and decoder of this package applies: between 1 and 2^28
// counters. The product is bounded one factor at a time, so no
// overflow carries a forged header past it; a negative int converted
// to uint64 is refused as too large.
func CheckSize(depth, width, stride uint64) error {
	if depth == 0 || width == 0 || stride == 0 || width > maxCells/depth || stride > maxCells/(depth*width) {
		return fmt.Errorf("sketches: a %d×%d sketch of %d-counter buckets is outside 1 to %d counters", depth, width, stride, uint64(maxCells))
	}
	return nil
}

// newMatrix allocates a zeroed matrix with the hash family seed
// derives, with sign hashes when signed (Count Sketch's). It panics
// past CheckSize's bound.
func newMatrix(depth, width, stride int, seed uint64, signed bool) matrix {
	if err := CheckSize(uint64(depth), uint64(width), uint64(stride)); err != nil {
		panic(err)
	}
	return matrix{
		cells:  make([]int64, depth*width*stride),
		family: hash.NewFamily(depth, width, 2, seed, signed),
		depth:  depth,
		width:  width,
		stride: stride,
	}
}

// clone returns a copy with its own cells. The hash family is shared:
// it is immutable after construction.
func (m *matrix) clone() matrix {
	c := *m
	c.cells = slices.Clone(m.cells)
	return c
}

// add adds sign × o's cells and n into m's: sign 1 merges o's stream
// in, −1 subtracts it, which, like a deletion, sets neg. o must have
// m's hash family, and the caller has checked that it has m's stride.
func (m *matrix) add(name string, o *matrix, sign int64) error {
	if err := m.family.Compatible(o.family); err != nil {
		return core.Incompatible("%s: %v", name, err)
	}
	cells := m.cells[:len(o.cells)]
	for i, v := range o.cells {
		cells[i] += sign * v
	}
	m.n += sign * o.n
	m.neg = m.neg || o.neg || sign < 0
	return nil
}

// bucket returns the index of the first counter of xv's bucket in row i.
func (m *matrix) bucket(i int, xv uint64) int {
	return (i*m.width + m.family.Buckets[i].Hash(xv)) * m.stride
}

// estimate reads xv's bucket totals, the first counter of its bucket in
// every row: their minimum while no deletion has been applied, their
// median once one has (Count-Min's and CGT's point estimate). The
// median path is a function of its own, which keeps the common min loop
// free of its buffer.
func (m *matrix) estimate(xv uint64) int64 {
	if m.neg {
		return m.medianEstimate(xv)
	}
	est := int64(math.MaxInt64)
	for i := range m.depth {
		est = min(est, m.cells[m.bucket(i, xv)])
	}
	return est
}

func (m *matrix) medianEstimate(xv uint64) int64 {
	var buf [medianRows]int64
	vals := buf[:0]
	for i := range m.depth {
		vals = append(vals, m.cells[m.bucket(i, xv)])
	}
	return median(vals)
}

// N implements core.Summary for the sketches.
func (m *matrix) N() int64 { return m.n }

// Bytes implements core.Summary for the sketches: the cells, plus 16
// bytes of hash seeds a row.
func (m *matrix) Bytes() int { return 8*len(m.cells) + 16*m.depth }

// medianRows sizes the stack buffer the median estimators collect row
// values in. It covers every registry depth (4 and 5 rows); a deeper
// sketch's values spill to the heap.
const medianRows = 8

// median returns the median of vals, averaging the two central values for
// even lengths (rounding toward the lower). vals is sorted in place by
// insertion sort, which allocates nothing and is the fastest sort for
// the handful of rows a sketch has.
func median(vals []int64) int64 {
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	m := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[m]
	}
	return (vals[m-1] + vals[m]) / 2
}
