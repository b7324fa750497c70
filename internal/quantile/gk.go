// Package quantile implements the Greenwald–Khanna (GK) ε-approximate
// quantile summary. The VLDB 2008 study groups frequent-items algorithms
// with quantile summaries as the two workhorse stream-summary classes
// (its authors' companion work covers both); GK is included here so the
// library covers the quantile side of that toolbox, and because the
// paper's counter-based algorithms are often deployed alongside it.
//
// A GK summary over n observed values answers any rank query within ±εn
// using O((1/ε)·log(εn)) stored tuples.
package quantile

import (
	"fmt"
	"math"
	"sort"
)

// tuple is one GK triple: the value v, g = rank(v) − rank(previous v)
// (the gap), and Δ = the maximum possible error of v's rank.
type tuple struct {
	v     float64
	g     int64
	delta int64
}

// GK is a Greenwald–Khanna quantile summary. The zero value is not
// usable; construct with New.
type GK struct {
	epsilon float64
	tuples  []tuple // sorted by v
	n       int64
	// compressEvery batches compression: GK compresses after every
	// ⌊1/(2ε)⌋ inserts, which preserves the space bound.
	sinceCompress int
}

// New returns a GK summary with rank error εn.
func New(epsilon float64) *GK {
	if epsilon <= 0 || epsilon >= 1 {
		panic("quantile: GK requires 0 < epsilon < 1")
	}
	return &GK{epsilon: epsilon}
}

// N returns the number of inserted values.
func (g *GK) N() int64 { return g.n }

// Size returns the number of stored tuples.
func (g *GK) Size() int { return len(g.tuples) }

// Bytes returns the approximate memory footprint.
func (g *GK) Bytes() int { return 24 * len(g.tuples) }

// Insert adds one value to the summary.
func (g *GK) Insert(v float64) {
	// Find insertion position: first tuple with value > v.
	pos := sort.Search(len(g.tuples), func(i int) bool { return g.tuples[i].v > v })

	var delta int64
	switch {
	case pos == 0 || pos == len(g.tuples):
		// New minimum or maximum: its rank is known exactly.
		delta = 0
	default:
		delta = int64(2*g.epsilon*float64(g.n)) - 1
		if delta < 0 {
			delta = 0
		}
	}
	g.tuples = append(g.tuples, tuple{})
	copy(g.tuples[pos+1:], g.tuples[pos:])
	g.tuples[pos] = tuple{v: v, g: 1, delta: delta}
	g.n++

	g.sinceCompress++
	if g.sinceCompress >= int(1/(2*g.epsilon))+1 {
		g.compress()
		g.sinceCompress = 0
	}
}

// compress merges adjacent tuples whose combined uncertainty stays within
// the 2εn band.
func (g *GK) compress() {
	if len(g.tuples) < 3 {
		return
	}
	limit := int64(2 * g.epsilon * float64(g.n))
	out := g.tuples[:0]
	out = append(out, g.tuples[0])
	for i := 1; i < len(g.tuples)-1; i++ {
		t := g.tuples[i]
		last := &out[len(out)-1]
		_ = last
		next := g.tuples[i+1]
		if t.g+next.g+next.delta <= limit {
			// Merge t into its successor: the successor absorbs t's gap.
			g.tuples[i+1].g += t.g
			continue
		}
		out = append(out, t)
	}
	out = append(out, g.tuples[len(g.tuples)-1])
	g.tuples = out
}

// Quantile returns a value whose rank is within εn of q·n, for
// q ∈ [0, 1]. It returns an error if the summary is empty.
func (g *GK) Quantile(q float64) (float64, error) {
	if len(g.tuples) == 0 {
		return 0, fmt.Errorf("quantile: empty summary")
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(g.n)))
	slack := int64(g.epsilon * float64(g.n))
	// The extremes are tracked exactly (Δ = 0 at insertion): answer them
	// from the end tuples directly rather than the first in-band tuple.
	if target <= 1 {
		return g.tuples[0].v, nil
	}
	if target >= g.n {
		return g.tuples[len(g.tuples)-1].v, nil
	}

	var rmin int64
	for i, t := range g.tuples {
		rmin += t.g
		rmax := rmin + t.delta
		if target-slack <= rmin && rmax <= target+slack {
			return t.v, nil
		}
		// Last tuple always matches the maximum.
		if i == len(g.tuples)-1 {
			return t.v, nil
		}
	}
	return g.tuples[len(g.tuples)-1].v, nil
}

// Rank returns bounds [lo, hi] on the rank of v among the inserted
// values; the true rank lies within them.
func (g *GK) Rank(v float64) (lo, hi int64) {
	var rmin int64
	for _, t := range g.tuples {
		if t.v > v {
			break
		}
		rmin += t.g
		hi = rmin + t.delta
	}
	lo = rmin
	return lo, hi
}

// validate checks the GK invariant g + Δ ≤ 2εn + 1 for every tuple and
// value-sortedness; used by tests.
func (g *GK) validate() error {
	limit := int64(2*g.epsilon*float64(g.n)) + 1
	var total int64
	for i, t := range g.tuples {
		if i > 0 && g.tuples[i-1].v > t.v {
			return fmt.Errorf("tuples out of order at %d", i)
		}
		if t.g+t.delta > limit {
			return fmt.Errorf("tuple %d violates invariant: g+Δ = %d > %d", i, t.g+t.delta, limit)
		}
		total += t.g
	}
	if total != g.n {
		return fmt.Errorf("gap sum %d != n %d", total, g.n)
	}
	return nil
}
