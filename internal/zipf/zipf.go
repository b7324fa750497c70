// Package zipf generates the synthetic workloads of the paper's
// evaluation: Zipf-distributed streams with configurable skew, plus
// uniform, sequential and adversarial streams used by tests.
//
// The paper draws 10^7 items from Zipf distributions with skew z between
// roughly 0.5 (near-uniform) and 3 (extremely skewed). We sample *exactly*
// from the truncated Zipf distribution by inverse-CDF lookup on a
// precomputed cumulative table: item of rank r (1-based) has probability
// proportional to 1/r^z. Ranks are then scrambled through a fixed
// bijective 64-bit mix so that item identifiers are uncorrelated with
// popularity (a structure-free universe, as when hashing query strings).
package zipf

import (
	"fmt"
	"math"
	"sort"

	"streamfreq/internal/core"
	"streamfreq/internal/hash"
	"streamfreq/internal/prng"
)

// Generator produces Zipf(z) samples over a universe of m distinct items.
type Generator struct {
	cdf      []float64 // cdf[i] = P(rank <= i+1), strictly increasing to 1
	rng      *prng.Xoshiro256
	scramble bool
}

// NewGenerator builds an exact Zipf(z) sampler over m items seeded by
// seed. If scramble is true, rank r is mapped to the identifier
// Mix64(r) (a fixed bijection), so IDs carry no rank structure; if false,
// item identifiers equal ranks (useful in tests).
//
// Construction is O(m); sampling is O(log m) per item.
func NewGenerator(m int, z float64, seed uint64, scramble bool) (*Generator, error) {
	if m <= 0 {
		return nil, fmt.Errorf("zipf: universe size must be positive, got %d", m)
	}
	if z < 0 {
		return nil, fmt.Errorf("zipf: skew must be non-negative, got %g", z)
	}
	cdf := make([]float64, m)
	var total float64
	for r := 1; r <= m; r++ {
		total += math.Pow(float64(r), -z)
		cdf[r-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[m-1] = 1 // guard against FP drift
	return &Generator{cdf: cdf, rng: prng.New(seed), scramble: scramble}, nil
}

// rankToItem maps a 1-based rank to its item identifier.
func (g *Generator) rankToItem(rank int) core.Item {
	if g.scramble {
		return core.Item(hash.Mix64(uint64(rank)))
	}
	return core.Item(rank)
}

// ItemOfRank exposes the rank→identifier mapping so tests and the harness
// can locate the true heavy hitters without materializing a stream.
func (g *Generator) ItemOfRank(rank int) core.Item {
	if rank < 1 || rank > len(g.cdf) {
		panic(fmt.Sprintf("zipf: rank %d out of range [1,%d]", rank, len(g.cdf)))
	}
	return g.rankToItem(rank)
}

// Prob returns the probability of the item of the given 1-based rank.
func (g *Generator) Prob(rank int) float64 {
	if rank < 1 || rank > len(g.cdf) {
		panic(fmt.Sprintf("zipf: rank %d out of range [1,%d]", rank, len(g.cdf)))
	}
	if rank == 1 {
		return g.cdf[0]
	}
	return g.cdf[rank-1] - g.cdf[rank-2]
}

// Next draws one item.
func (g *Generator) Next() core.Item {
	u := g.rng.Float64()
	// Smallest index with cdf[i] >= u. sort.SearchFloat64s finds the
	// insertion point, which is exactly that index because cdf is
	// strictly increasing.
	i := sort.SearchFloat64s(g.cdf, u)
	if i >= len(g.cdf) {
		i = len(g.cdf) - 1
	}
	return g.rankToItem(i + 1)
}

// Fill draws len(dst) items into dst.
func (g *Generator) Fill(dst []core.Item) {
	for i := range dst {
		dst[i] = g.Next()
	}
}

// Stream materializes a stream of n items.
func (g *Generator) Stream(n int) []core.Item {
	s := make([]core.Item, n)
	g.Fill(s)
	return s
}

// ExpectedHeavyHitters returns the ranks whose expected frequency exceeds
// phi (i.e. Prob(rank) > phi). Because Zipf probabilities are
// non-increasing in rank this is a prefix of the ranks.
func (g *Generator) ExpectedHeavyHitters(phi float64) []core.Item {
	var out []core.Item
	for r := 1; r <= len(g.cdf); r++ {
		if g.Prob(r) <= phi {
			break
		}
		out = append(out, g.rankToItem(r))
	}
	return out
}

// Uniform returns a generator of uniform samples over m scrambled items.
// Uniform streams are the hardest case for frequent-items algorithms
// (there are no frequent items), used in edge-case tests.
func Uniform(m int, seed uint64) *Generator {
	g, err := NewGenerator(m, 0, seed, true)
	if err != nil {
		panic(err) // m > 0 by construction in callers; programmer error otherwise
	}
	return g
}

// Sequential produces the deterministic stream 1, 2, ..., n (no repeats),
// used by tests for worst-case eviction churn in counter algorithms.
func Sequential(n int) []core.Item {
	s := make([]core.Item, n)
	for i := range s {
		s[i] = core.Item(i + 1)
	}
	return s
}

// Adversarial produces a stream engineered against Misra–Gries-style
// summaries with k counters: a batch of heavy items followed by rotating
// cohorts of k+1 distinct items that repeatedly trigger global decrements.
func Adversarial(n, k int, seed uint64) []core.Item {
	rng := prng.New(seed)
	s := make([]core.Item, 0, n)
	heavy := core.Item(hash.Mix64(1))
	for len(s) < n {
		// One heavy arrival, then a cohort of k+1 fresh distinct items.
		s = append(s, heavy)
		base := rng.Uint64()
		for j := 0; j <= k && len(s) < n; j++ {
			s = append(s, core.Item(hash.Mix64(base+uint64(j)+2)))
		}
	}
	return s
}
