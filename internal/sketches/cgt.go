package sketches

import "streamfreq/internal/core"

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
	// The matrix's stride is 1 + universeBits: each bucket's total,
	// then bit b's sub-counter at offset 1 + b.
	matrix
	universeBits uint
}

// NewCGT returns a CGT sketch with the given depth (rows) and width
// (buckets per row) over a universe of universeBits-bit items
// (0 selects 64). Equal (depth, width, universeBits, seed) sketches are
// mergeable. It panics on dimensions CheckSize refuses.
func NewCGT(depth, width int, universeBits uint, seed uint64) *CGT {
	if universeBits == 0 {
		universeBits = 64
	}
	if universeBits > 64 {
		panic("sketches: CGT universe exceeds 64 bits")
	}
	return &CGT{newMatrix(depth, width, 1+int(universeBits), seed, false), universeBits}
}

// Name implements core.Summary.
func (c *CGT) Name() string { return "CGT" }

// mask keeps x's universeBits low bits.
func (c *CGT) mask(x core.Item) uint64 {
	if c.universeBits < 64 {
		return uint64(x) & (1<<c.universeBits - 1)
	}
	return uint64(x)
}

// Update adds count (possibly negative) occurrences of x.
func (c *CGT) Update(x core.Item, count int64) {
	if count < 0 {
		c.neg = true
	}
	c.n += count
	xv := c.mask(x)
	for i := range c.depth {
		b := c.bucket(i, xv)
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
func (c *CGT) Estimate(x core.Item) int64 { return c.estimate(c.mask(x)) }

// Query decodes every bucket whose total reaches threshold, verifies each
// decoded candidate against the full sketch, and returns the verified
// items in descending estimate order.
func (c *CGT) Query(threshold int64) []core.ItemCount {
	if threshold <= 0 {
		threshold = 1
	}
	seen := make(map[core.Item]int64)
	for i := range c.depth {
		for j := range c.width {
			b := (i*c.width + j) * c.stride
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

// Clone returns an independent deep copy of the cell array; the hash
// family is shared.
func (c *CGT) Clone() *CGT { return &CGT{c.clone(), c.universeBits} }

// Snapshot implements core.Snapshotter.
func (c *CGT) Snapshot() core.Summary { return c.Clone() }

// Merge adds another CGT sketch built with identical parameters.
func (c *CGT) Merge(other core.Summary) error { return c.combine(other, 1) }

// Subtract removes another CGT sketch's stream.
func (c *CGT) Subtract(other core.Summary) error { return c.combine(other, -1) }

// combine is Merge (sign 1) and Subtract (sign −1) of sketches over the
// same universe.
func (c *CGT) combine(other core.Summary, sign int64) error {
	o, ok := other.(*CGT)
	if !ok {
		return core.Incompatible("CGT: cannot combine with %T", other)
	}
	if c.universeBits != o.universeBits {
		return core.Incompatible("CGT: universe mismatch (%d vs %d bits)", c.universeBits, o.universeBits)
	}
	return c.add("CGT", &o.matrix, sign)
}
