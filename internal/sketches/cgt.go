package sketches

import (
	"math"

	"streamfreq/internal/core"
	"streamfreq/internal/hash"
)

// CGT is the Combinatorial Group Testing sketch of Cormode and
// Muthukrishnan ("What's hot and what's not"), the third sketch of the
// paper's roster. It extends each Count-Min bucket with one sub-counter
// per item bit: a bucket dominated by a single heavy item can then be
// *decoded* directly — bit b of the item is 1 exactly when the bit-b
// sub-counter holds the majority of the bucket total — without any
// universe enumeration or hierarchy descent.
//
// The price is a (1 + universeBits)× blow-up in counters per bucket, the
// "large constant factor" space overhead visible in the paper's space
// plots. Like Count-Min, CGT is linear: it supports deletions, merging
// and subtraction.
type CGT struct {
	// cells is laid out as depth × width × (1+universeBits):
	// cells[(i*width+j)*(1+U) + 0] is the bucket total,
	// cells[(i*width+j)*(1+U) + 1 + b] the bit-b sub-counter.
	cells        []int64
	family       *hash.Family
	depth        int
	width        int
	universeBits uint
	stride       int
	n            int64
	neg          bool
}

// NewCGT returns a CGT sketch with the given depth (rows) and width
// (buckets per row) over a universe of universeBits-bit items
// (0 selects 64). Equal (depth, width, universeBits, seed) sketches are
// mergeable.
func NewCGT(depth, width int, universeBits uint, seed uint64) *CGT {
	if depth <= 0 || width <= 0 {
		panic("sketches: CGT requires positive depth and width")
	}
	if universeBits == 0 {
		universeBits = 64
	}
	if universeBits > 64 {
		panic("sketches: CGT universe exceeds 64 bits")
	}
	stride := 1 + int(universeBits)
	return &CGT{
		cells:        make([]int64, depth*width*stride),
		family:       hash.NewFamily(depth, width, 2, seed),
		depth:        depth,
		width:        width,
		universeBits: universeBits,
		stride:       stride,
	}
}

// Name implements core.Summary.
func (c *CGT) Name() string { return "CGT" }

// N implements core.Summary.
func (c *CGT) N() int64 { return c.n }

// Depth returns the number of rows.
func (c *CGT) Depth() int { return c.depth }

// Width returns the buckets per row.
func (c *CGT) Width() int { return c.width }

func (c *CGT) base(row, bucket int) int {
	return (row*c.width + bucket) * c.stride
}

// Update adds count (possibly negative) occurrences of x.
func (c *CGT) Update(x core.Item, count int64) {
	if count < 0 {
		c.neg = true
	}
	c.n += count
	xv := uint64(x)
	if c.universeBits < 64 {
		xv &= (1 << c.universeBits) - 1
	}
	for i := 0; i < c.depth; i++ {
		b := c.base(i, c.family.Buckets[i].Hash(xv))
		c.cells[b] += count
		for bit := uint(0); bit < c.universeBits; bit++ {
			if xv&(1<<bit) != 0 {
				c.cells[b+1+int(bit)] += count
			}
		}
	}
}

// Estimate returns the Count-Min-style point estimate from the bucket
// totals (min for insert-only, median after deletions).
func (c *CGT) Estimate(x core.Item) int64 {
	xv := uint64(x)
	if c.universeBits < 64 {
		xv &= (1 << c.universeBits) - 1
	}
	if c.neg {
		var buf [medianRows]int64
		vals := buf[:0]
		for i := 0; i < c.depth; i++ {
			vals = append(vals, c.cells[c.base(i, c.family.Buckets[i].Hash(xv))])
		}
		return median(vals)
	}
	est := int64(math.MaxInt64)
	for i := 0; i < c.depth; i++ {
		if v := c.cells[c.base(i, c.family.Buckets[i].Hash(xv))]; v < est {
			est = v
		}
	}
	return est
}

// Query decodes every bucket whose total reaches threshold, verifies each
// decoded candidate against the full sketch, and returns the verified
// items in descending estimate order.
func (c *CGT) Query(threshold int64) []core.ItemCount {
	if threshold <= 0 {
		threshold = 1
	}
	seen := make(map[core.Item]int64)
	for i := 0; i < c.depth; i++ {
		for j := 0; j < c.width; j++ {
			b := c.base(i, j)
			total := c.cells[b]
			if total < threshold {
				continue
			}
			// Majority-decode the candidate item bit by bit.
			var xv uint64
			for bit := uint(0); bit < c.universeBits; bit++ {
				if 2*c.cells[b+1+int(bit)] > total {
					xv |= 1 << bit
				}
			}
			it := core.Item(xv)
			if _, dup := seen[it]; dup {
				continue
			}
			// Verification 1: the candidate must hash back to this bucket
			// in this row, else the decode mixed several items.
			if c.family.Buckets[i].Hash(xv) != j {
				continue
			}
			// Verification 2: the cross-row estimate must itself clear
			// the threshold.
			if est := c.Estimate(it); est >= threshold {
				seen[it] = est
			}
		}
	}
	out := make([]core.ItemCount, 0, len(seen))
	for it, est := range seen {
		out = append(out, core.ItemCount{Item: it, Count: est})
	}
	core.SortByCountDesc(out)
	return out
}

// Bytes implements core.Summary.
func (c *CGT) Bytes() int {
	return 8*len(c.cells) + 16*c.depth
}

// Clone returns an independent deep copy of the cell array; the hash
// family is shared (immutable after construction).
func (c *CGT) Clone() *CGT {
	nc := *c
	nc.cells = append([]int64(nil), c.cells...)
	return &nc
}

// Snapshot implements core.Snapshotter.
func (c *CGT) Snapshot() core.Summary { return c.Clone() }

// Merge adds another CGT sketch built with identical parameters.
func (c *CGT) Merge(other core.Summary) error {
	o, ok := other.(*CGT)
	if !ok {
		return core.Incompatible("CGT: cannot merge %T", other)
	}
	if err := c.compatible(o); err != nil {
		return err
	}
	for i := range c.cells {
		c.cells[i] += o.cells[i]
	}
	c.n += o.n
	c.neg = c.neg || o.neg
	return nil
}

// Subtract removes another CGT sketch's stream.
func (c *CGT) Subtract(other core.Summary) error {
	o, ok := other.(*CGT)
	if !ok {
		return core.Incompatible("CGT: cannot subtract %T", other)
	}
	if err := c.compatible(o); err != nil {
		return err
	}
	for i := range c.cells {
		c.cells[i] -= o.cells[i]
	}
	c.n -= o.n
	c.neg = true
	return nil
}

func (c *CGT) compatible(o *CGT) error {
	if c.universeBits != o.universeBits {
		return core.Incompatible("CGT: universe mismatch (%d vs %d bits)", c.universeBits, o.universeBits)
	}
	if err := c.family.Compatible(o.family); err != nil {
		return core.Incompatible("CGT: %v", err)
	}
	return nil
}
