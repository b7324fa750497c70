package sketches

import (
	"streamfreq/internal/core"
	"streamfreq/internal/hash"
)

// CountSketch is the COUNT SKETCH of Charikar, Chen & Farach-Colton: a
// d×w array of counters where each row pairs a bucket hash h_i with a
// pairwise-independent sign hash s_i ∈ {±1}. Row i's estimate of item q
// is rows[i][h_i(q)]·s_i(q); the sketch estimate is the median across
// rows.
//
// Each row estimate is unbiased with variance bounded by F2/w (F2 the
// second frequency moment of the colliding items), so with
// w = O(F2^res(k)/(εn_k)²) and d = O(log(n/δ)) the median is within
// ±εn_k of truth for every item simultaneously, with probability 1−δ —
// Lemmas 1–4 of the paper. Errors are two-sided, unlike Count-Min.
type CountSketch struct {
	matrix
}

// NewCountSketch returns a d(depth) × w(width) Count Sketch seeded
// deterministically by seed. Sketches built with equal (depth, width,
// seed) are mergeable and subtractable. It panics on dimensions
// CheckSize refuses.
func NewCountSketch(depth, width int, seed uint64) *CountSketch {
	return &CountSketch{newMatrix(depth, width, 1, seed, true)}
}

// Name implements core.Summary.
func (c *CountSketch) Name() string { return "CS" }

// Update adds count (possibly negative) occurrences of x — the ADD
// operation of the paper, generalized to weighted arrivals.
func (c *CountSketch) Update(x core.Item, count int64) {
	c.n += count
	xv := uint64(x)
	for i := range c.depth {
		c.cells[c.bucket(i, xv)] += count * c.family.Signs[i].Hash(xv)
	}
}

// UpdateBatch implements core.BatchUpdater for unit-count arrivals: they
// go through the pair path's row-major kernel as they come, without a
// collapse, for the reason CountMin.UpdateBatch gives.
func (c *CountSketch) UpdateBatch(items []core.Item) {
	c.n += int64(len(items))
	c.addRows(items, nil)
}

// Linear implements core.PairUpdater: the sketch is linear.
func (c *CountSketch) Linear() bool { return true }

// UpdatePairs implements core.PairUpdater: counts[i] arrivals of items[i]
// for every i, processed row by row with one batch call each for the
// bucket and sign hashes (see CountMin.UpdatePairs for why the row-major
// order is also the cache-friendly one).
func (c *CountSketch) UpdatePairs(items []core.Item, counts []int64) {
	var total int64
	for _, count := range counts {
		total += count
	}
	c.n += total
	c.addRows(items, counts)
}

// addRows adds counts[j] — or 1 when counts is nil — times items[j]'s
// sign to its counter in every row, row by row in chunks of pairChunk
// items.
func (c *CountSketch) addRows(items []core.Item, counts []int64) {
	var idx [pairChunk]int
	var sign [pairChunk]int64
	for len(items) > 0 {
		n := min(len(items), pairChunk)
		for i := range c.depth {
			row := c.cells[i*c.width : (i+1)*c.width]
			hash.Buckets(&c.family.Buckets[i], items[:n], idx[:n])
			hash.Signs(c.family.Signs[i], items[:n], sign[:n])
			if counts == nil {
				for j, b := range idx[:n] {
					row[b] += sign[j]
				}
				continue
			}
			for j, b := range idx[:n] {
				row[b] += counts[j] * sign[j]
			}
		}
		items = items[n:]
		if counts != nil {
			counts = counts[n:]
		}
	}
}

// Estimate implements the ESTIMATE operation: the median over rows of the
// signed counter values.
func (c *CountSketch) Estimate(x core.Item) int64 {
	xv := uint64(x)
	var buf [medianRows]int64
	vals := buf[:0]
	for i := range c.depth {
		vals = append(vals, c.cells[c.bucket(i, xv)]*c.family.Signs[i].Hash(xv))
	}
	return median(vals)
}

// Query is not supported by a flat Count Sketch (it cannot enumerate
// items); wrap it in a tracker or hierarchy. Returns nil.
func (c *CountSketch) Query(threshold int64) []core.ItemCount { return nil }

// Clone returns an independent deep copy of the counter array; the hash
// family (buckets and signs) is shared.
func (c *CountSketch) Clone() *CountSketch { return &CountSketch{c.clone()} }

// Snapshot implements core.Snapshotter.
func (c *CountSketch) Snapshot() core.Summary { return c.Clone() }

// Bytes implements core.Summary: the matrix, plus the rows' sign hash
// seeds.
func (c *CountSketch) Bytes() int { return c.matrix.Bytes() + 16*c.depth }

// Merge adds another Count Sketch built with identical parameters; the
// result sketches the concatenated streams (sketch additivity, §1 of the
// paper).
func (c *CountSketch) Merge(other core.Summary) error { return c.combine(other, 1) }

// Subtract removes another sketch's stream, leaving a sketch of the
// frequency *difference* vector — the primitive behind the paper's §4.2
// max-change algorithm.
func (c *CountSketch) Subtract(other core.Summary) error { return c.combine(other, -1) }

// combine is Merge (sign 1) and Subtract (sign −1).
func (c *CountSketch) combine(other core.Summary, sign int64) error {
	o, ok := other.(*CountSketch)
	if !ok {
		return core.Incompatible("CountSketch: cannot combine with %T", other)
	}
	return c.add("CountSketch", &o.matrix, sign)
}
