package sketches

import (
	"math"

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
	rows   [][]int64
	family *hash.Family
	width  int
	depth  int
	n      int64
}

// NewCountSketch returns a d(depth) × w(width) Count Sketch seeded
// deterministically by seed. Sketches built with equal (depth, width,
// seed) are mergeable and subtractable.
func NewCountSketch(depth, width int, seed uint64) *CountSketch {
	if depth <= 0 || width <= 0 {
		panic("sketches: CountSketch requires positive depth and width")
	}
	rows := make([][]int64, depth)
	backing := make([]int64, depth*width)
	for i := range rows {
		rows[i], backing = backing[:width:width], backing[width:]
	}
	return &CountSketch{
		rows:   rows,
		family: hash.NewFamily(depth, width, 2, seed),
		width:  width,
		depth:  depth,
	}
}

// CSParamsForEpsilon returns (depth, width) achieving additive error
// ε·√F2 with failure probability δ per the Count-Sketch analysis:
// w = ⌈3/ε²⌉ (variance term), d = ⌈ln(1/δ)·4⌉ rows for median
// concentration.
func CSParamsForEpsilon(epsilon, delta float64) (depth, width int) {
	depth = int(math.Ceil(4 * math.Log(1/delta)))
	if depth < 1 {
		depth = 1
	}
	// Odd depth gives an exact median.
	if depth%2 == 0 {
		depth++
	}
	width = int(math.Ceil(3 / (epsilon * epsilon)))
	if width < 1 {
		width = 1
	}
	return depth, width
}

// Name implements core.Summary.
func (c *CountSketch) Name() string { return "CS" }

// Depth returns d.
func (c *CountSketch) Depth() int { return c.depth }

// Width returns the number of counters per row.
func (c *CountSketch) Width() int { return c.width }

// N implements core.Summary.
func (c *CountSketch) N() int64 { return c.n }

// Update adds count (possibly negative) occurrences of x — the ADD
// operation of the paper, generalized to weighted arrivals.
func (c *CountSketch) Update(x core.Item, count int64) {
	c.n += count
	xv := uint64(x)
	for i := range c.rows {
		c.rows[i][c.family.Buckets[i].Hash(xv)] += count * c.family.Signs[i].Hash(xv)
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
		for i, row := range c.rows {
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
	for i, row := range c.rows {
		vals = append(vals, row[c.family.Buckets[i].Hash(xv)]*c.family.Signs[i].Hash(xv))
	}
	return median(vals)
}

// Query is not supported by a flat Count Sketch (it cannot enumerate
// items); wrap it in a tracker or hierarchy. Returns nil.
func (c *CountSketch) Query(threshold int64) []core.ItemCount { return nil }

// Clone returns an independent deep copy of the counter array; the hash
// family (buckets and signs) is shared, being immutable after
// construction.
func (c *CountSketch) Clone() *CountSketch {
	nc := &CountSketch{family: c.family, width: c.width, depth: c.depth, n: c.n}
	backing := make([]int64, c.depth*c.width)
	nc.rows = make([][]int64, c.depth)
	for i := range nc.rows {
		nc.rows[i], backing = backing[:c.width:c.width], backing[c.width:]
		copy(nc.rows[i], c.rows[i])
	}
	return nc
}

// Snapshot implements core.Snapshotter.
func (c *CountSketch) Snapshot() core.Summary { return c.Clone() }

// Bytes implements core.Summary.
func (c *CountSketch) Bytes() int {
	return 8*c.depth*c.width + 32*c.depth // counters + bucket and sign hash seeds
}

// Merge adds another Count Sketch built with identical parameters; the
// result sketches the concatenated streams (sketch additivity, §1 of the
// paper).
func (c *CountSketch) Merge(other core.Summary) error {
	o, ok := other.(*CountSketch)
	if !ok {
		return core.Incompatible("CountSketch: cannot merge %T", other)
	}
	if err := c.family.Compatible(o.family); err != nil {
		return core.Incompatible("CountSketch: %v", err)
	}
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] += o.rows[i][j]
		}
	}
	c.n += o.n
	return nil
}

// Subtract removes another sketch's stream, leaving a sketch of the
// frequency *difference* vector — the primitive behind the paper's §4.2
// max-change algorithm.
func (c *CountSketch) Subtract(other core.Summary) error {
	o, ok := other.(*CountSketch)
	if !ok {
		return core.Incompatible("CountSketch: cannot subtract %T", other)
	}
	if err := c.family.Compatible(o.family); err != nil {
		return core.Incompatible("CountSketch: %v", err)
	}
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] -= o.rows[i][j]
		}
	}
	c.n -= o.n
	return nil
}
