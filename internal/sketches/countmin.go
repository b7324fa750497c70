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
package sketches

import (
	"math"

	"streamfreq/internal/core"
	"streamfreq/internal/hash"
)

// CountMin is the Cormode–Muthukrishnan Count-Min sketch: a d×w array of
// counters with one pairwise-independent hash per row.
//
// For an insert-only stream, Estimate never underestimates and, with
// w = ⌈e/ε⌉ and d = ⌈ln(1/δ)⌉, overestimates by more than εN with
// probability at most δ. Under deletions the min estimator loses its
// one-sided guarantee and the sketch switches to the median estimator
// automatically.
type CountMin struct {
	rows         [][]int64
	family       *hash.Family
	width        int
	depth        int
	n            int64
	neg          bool // a negative update has been seen; use median estimator
	conservative bool
}

// NewCountMin returns a d(depth) × w(width) Count-Min sketch seeded
// deterministically by seed. Sketches built with equal (depth, width,
// seed) are mergeable.
func NewCountMin(depth, width int, seed uint64) *CountMin {
	return newCountMin(depth, width, seed, false)
}

// NewCountMinConservative returns a Count-Min sketch using conservative
// update: on increment, each row counter is raised only as far as
// necessary (to the current estimate plus the increment), never higher.
// Conservative update strictly reduces overestimation for insert-only
// streams but forfeits linearity (no Subtract, merge is approximate),
// which is why the paper's main roster uses the plain sketch; the
// ablation bench quantifies the accuracy difference.
func NewCountMinConservative(depth, width int, seed uint64) *CountMin {
	return newCountMin(depth, width, seed, true)
}

func newCountMin(depth, width int, seed uint64, conservative bool) *CountMin {
	if depth <= 0 || width <= 0 {
		panic("sketches: CountMin requires positive depth and width")
	}
	rows := make([][]int64, depth)
	backing := make([]int64, depth*width)
	for i := range rows {
		rows[i], backing = backing[:width:width], backing[width:]
	}
	return &CountMin{
		rows:         rows,
		family:       hash.NewFamily(depth, width, 2, seed),
		width:        width,
		depth:        depth,
		conservative: conservative,
	}
}

// Name implements core.Summary.
func (c *CountMin) Name() string {
	if c.conservative {
		return "CMC"
	}
	return "CM"
}

// MonotoneEstimates implements core.EstimateMonotone: counters (and so
// the min estimator) only grow until a deletion is ingested.
func (c *CountMin) MonotoneEstimates() bool { return !c.neg }

// N implements core.Summary.
func (c *CountMin) N() int64 { return c.n }

// Update adds count (which may be negative, except for conservative
// sketches) occurrences of x.
func (c *CountMin) Update(x core.Item, count int64) {
	if c.conservative {
		if count < 0 {
			panic("sketches: conservative Count-Min does not support deletions")
		}
		c.updateConservative(x, count)
		return
	}
	if count < 0 {
		c.neg = true
	}
	c.n += count
	xv := uint64(x)
	for i := range c.rows {
		c.rows[i][c.family.Buckets[i].Hash(xv)] += count
	}
}

// UpdateBatch implements core.BatchUpdater for unit-count arrivals: they
// go through the pair path's row-major kernel as they come, without a
// collapse. One Count-Min row update costs about what one probe of the
// collapse table costs, so collapsing saves little on skewed batches and
// adds a whole pass on batches without repeats (measured by
// BenchmarkUpdateBatchDistinct/flatCM). Callers that collapse anyway
// hand their pairs to UpdatePairs: Tracked, which needs the distinct
// items to admit, and the hierarchies, which share one collapse across
// all their levels.
//
// Conservative sketches are not linear — each arrival's write depends on
// the estimate at that arrival — so they keep per-arrival processing.
func (c *CountMin) UpdateBatch(items []core.Item) {
	if c.conservative {
		for _, x := range items {
			c.updateConservative(x, 1)
		}
		return
	}
	c.n += int64(len(items))
	c.addRows(items, nil)
}

// Linear implements core.PairUpdater: a plain Count-Min is linear, a
// conservative one is not (see UpdateBatch).
func (c *CountMin) Linear() bool { return !c.conservative }

// UpdatePairs implements core.PairUpdater: counts[i] arrivals of items[i]
// for every i, processed row by row. Each row's bucket indexes come from
// one batch hash call (hash.Buckets), and all writes of a row land in
// the same w-counter window, which keeps the touched cache lines
// resident (the scalar path cycles through all d rows between
// consecutive touches of any one row). A conservative sketch is not
// linear and has no pair path.
func (c *CountMin) UpdatePairs(items []core.Item, counts []int64) {
	if c.conservative {
		panic("sketches: conservative Count-Min is not linear and has no pair path")
	}
	var total int64
	for _, count := range counts {
		if count < 0 {
			c.neg = true
		}
		total += count
	}
	c.n += total
	c.addRows(items, counts)
}

// addRows adds counts[j] — or 1 when counts is nil — to items[j]'s
// counter in every row, row by row in chunks of pairChunk items.
func (c *CountMin) addRows(items []core.Item, counts []int64) {
	var idx [pairChunk]int
	for len(items) > 0 {
		n := min(len(items), pairChunk)
		for i, row := range c.rows {
			hash.Buckets(&c.family.Buckets[i], items[:n], idx[:n])
			if counts == nil {
				for _, b := range idx[:n] {
					row[b]++
				}
				continue
			}
			for j, b := range idx[:n] {
				row[b] += counts[j]
			}
		}
		items = items[n:]
		if counts != nil {
			counts = counts[n:]
		}
	}
}

// pairChunk is how many pairs the pair paths hash per row at a time: the
// bucket indexes live in a stack buffer, so the paths allocate nothing
// and retain no scratch.
const pairChunk = 256

func (c *CountMin) updateConservative(x core.Item, count int64) {
	c.n += count
	xv := uint64(x)
	// First pass: current estimate.
	est := int64(math.MaxInt64)
	idx := make([]int, c.depth)
	for i := range c.rows {
		idx[i] = c.family.Buckets[i].Hash(xv)
		if v := c.rows[i][idx[i]]; v < est {
			est = v
		}
	}
	target := est + count
	for i := range c.rows {
		if c.rows[i][idx[i]] < target {
			c.rows[i][idx[i]] = target
		}
	}
}

// Estimate returns the point estimate of x's count: the row minimum for
// insert-only streams, or the row median once deletions have occurred.
func (c *CountMin) Estimate(x core.Item) int64 {
	if c.neg {
		return c.estimateMedian(x)
	}
	return c.EstimateMin(x)
}

// EstimateMin returns the classical min-row estimate (an upper bound on
// the true count for insert-only streams).
func (c *CountMin) EstimateMin(x core.Item) int64 {
	xv := uint64(x)
	est := int64(math.MaxInt64)
	for i := range c.rows {
		if v := c.rows[i][c.family.Buckets[i].Hash(xv)]; v < est {
			est = v
		}
	}
	return est
}

func (c *CountMin) estimateMedian(x core.Item) int64 {
	xv := uint64(x)
	var buf [medianRows]int64
	vals := buf[:0]
	for i, row := range c.rows {
		vals = append(vals, row[c.family.Buckets[i].Hash(xv)])
	}
	return median(vals)
}

// Query is not supported by a flat Count-Min sketch: it cannot enumerate
// items. Wrap it in a core-level tracker or use the Hierarchical variant.
// It returns nil to satisfy core.Summary; the harness never calls it on
// flat sketches.
func (c *CountMin) Query(threshold int64) []core.ItemCount { return nil }

// Clone returns an independent deep copy of the counter array. The hash
// family is shared: it is immutable after construction, so parent and
// clone index identical bucket layouts at no copying cost.
func (c *CountMin) Clone() *CountMin {
	nc := &CountMin{
		family:       c.family,
		width:        c.width,
		depth:        c.depth,
		n:            c.n,
		neg:          c.neg,
		conservative: c.conservative,
	}
	backing := make([]int64, c.depth*c.width)
	nc.rows = make([][]int64, c.depth)
	for i := range nc.rows {
		nc.rows[i], backing = backing[:c.width:c.width], backing[c.width:]
		copy(nc.rows[i], c.rows[i])
	}
	return nc
}

// Snapshot implements core.Snapshotter.
func (c *CountMin) Snapshot() core.Summary { return c.Clone() }

// Bytes implements core.Summary.
func (c *CountMin) Bytes() int {
	return 8*c.depth*c.width + 16*c.depth // counters + per-row hash seeds
}

// Merge adds another Count-Min sketch built with identical parameters.
func (c *CountMin) Merge(other core.Summary) error {
	o, ok := other.(*CountMin)
	if !ok {
		return core.Incompatible("CountMin: cannot merge %T", other)
	}
	if err := c.family.Compatible(o.family); err != nil {
		return core.Incompatible("CountMin: %v", err)
	}
	if c.conservative || o.conservative {
		return core.Incompatible("CountMin: conservative sketches are not linear and cannot be merged exactly")
	}
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] += o.rows[i][j]
		}
	}
	c.n += o.n
	c.neg = c.neg || o.neg
	return nil
}

// Subtract removes another sketch's stream, leaving a sketch of the
// difference vector. Point queries switch to the median estimator.
func (c *CountMin) Subtract(other core.Summary) error {
	o, ok := other.(*CountMin)
	if !ok {
		return core.Incompatible("CountMin: cannot subtract %T", other)
	}
	if err := c.family.Compatible(o.family); err != nil {
		return core.Incompatible("CountMin: %v", err)
	}
	if c.conservative || o.conservative {
		return core.Incompatible("CountMin: conservative sketches are not linear and cannot be subtracted")
	}
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] -= o.rows[i][j]
		}
	}
	c.n -= o.n
	c.neg = true
	return nil
}

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
