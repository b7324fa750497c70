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
	matrix
	conservative bool
}

// NewCountMin returns a d(depth) × w(width) Count-Min sketch seeded
// deterministically by seed. Sketches built with equal (depth, width,
// seed) are mergeable. It panics on dimensions CheckSize refuses.
func NewCountMin(depth, width int, seed uint64) *CountMin {
	return &CountMin{matrix: newMatrix(depth, width, 1, seed, false)}
}

// NewCountMinConservative returns a Count-Min sketch using conservative
// update: on increment, each row counter is raised only as far as
// necessary (to the current estimate plus the increment), never higher.
// Conservative update strictly reduces overestimation for insert-only
// streams but forfeits linearity (no Subtract, merge is approximate),
// which is why the paper's main roster uses the plain sketch; the
// ablation bench quantifies the accuracy difference.
func NewCountMinConservative(depth, width int, seed uint64) *CountMin {
	return &CountMin{matrix: newMatrix(depth, width, 1, seed, false), conservative: true}
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
	for i := range c.depth {
		c.cells[c.bucket(i, uint64(x))] += count
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
		for i := range c.depth {
			row := c.cells[i*c.width : (i+1)*c.width]
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
	var buf [medianRows]int
	idx := buf[:0]
	est := int64(math.MaxInt64)
	for i := range c.depth {
		idx = append(idx, c.bucket(i, uint64(x)))
		est = min(est, c.cells[idx[i]])
	}
	for _, b := range idx {
		c.cells[b] = max(c.cells[b], est+count)
	}
}

// Estimate returns the point estimate of x's count: the row minimum for
// insert-only streams, or the row median once deletions have occurred.
func (c *CountMin) Estimate(x core.Item) int64 { return c.estimate(uint64(x)) }

// Query is not supported by a flat Count-Min sketch: it cannot enumerate
// items. Wrap it in a core-level tracker or use the Hierarchical variant.
// It returns nil to satisfy core.Summary; the harness never calls it on
// flat sketches.
func (c *CountMin) Query(threshold int64) []core.ItemCount { return nil }

// Clone returns an independent deep copy of the counter array; the hash
// family is shared.
func (c *CountMin) Clone() *CountMin {
	return &CountMin{matrix: c.clone(), conservative: c.conservative}
}

// Snapshot implements core.Snapshotter.
func (c *CountMin) Snapshot() core.Summary { return c.Clone() }

// Merge adds another Count-Min sketch built with identical parameters.
func (c *CountMin) Merge(other core.Summary) error { return c.combine(other, 1) }

// Subtract removes another sketch's stream, leaving a sketch of the
// difference vector. Point queries switch to the median estimator.
func (c *CountMin) Subtract(other core.Summary) error { return c.combine(other, -1) }

// combine is Merge (sign 1) and Subtract (sign −1). Conservative
// sketches are not linear, so neither is exact for them.
func (c *CountMin) combine(other core.Summary, sign int64) error {
	o, ok := other.(*CountMin)
	if !ok {
		return core.Incompatible("CountMin: cannot combine with %T", other)
	}
	if c.conservative || o.conservative {
		return core.Incompatible("CountMin: conservative sketches are not linear and cannot be merged or subtracted exactly")
	}
	return c.add("CountMin", &o.matrix, sign)
}
