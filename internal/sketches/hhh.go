package sketches

import (
	"sort"

	"streamfreq/internal/core"
)

// Hierarchical heavy hitters (HHH) — the query the dyadic sketch stack
// exists for. A prefix at level j aggregates the 2^(j·bits) items beneath
// it; the HHH report surfaces, at every granularity, the prefixes whose
// aggregate weight reaches the threshold, and discounts each prefix by
// the reported prefixes one level finer so callers can tell "heavy
// because one child is heavy" from "heavy in its own right" (the
// classic HHH discount rule of Cormode et al.).

// PrefixCount is one reported prefix in an HHH answer.
type PrefixCount struct {
	// Prefix is the prefix value: the item's top bits, shifted right by
	// Level·Bits. At Level 0 it is a full-resolution item.
	Prefix core.Item
	// Level is the hierarchy level: 0 is full resolution, Levels()-1 the
	// coarsest.
	Level int
	// Count is the estimated total weight of items under the prefix.
	Count int64
	// Residual is Count minus the Counts of this prefix's reported
	// children one level finer — the weight not explained by heavy
	// children.
	Residual int64
	// HHH reports whether Residual itself reaches the query threshold:
	// the prefix is heavy beyond what its heavy children account for.
	HHH bool
}

// HeavyPrefixes returns every prefix, at every level, whose estimated
// weight reaches threshold — coarsest level first, descending count
// within a level — with residuals discounted by the reported children.
//
// The descent visits only children of above-threshold prefixes — the
// frontier walk whose level 0 Query reports: a prefix's true weight is
// at least any child's, so over a Count-Min hierarchy (one-sided
// overestimates) recall is perfect at every level; a Count-Sketch
// hierarchy can miss prefixes whose estimates dip below threshold, the
// same recall gap as Query.
func (h *Hierarchical) HeavyPrefixes(threshold int64) []PrefixCount {
	threshold = max(threshold, 1)
	kept := h.frontier(threshold)
	top := len(kept) - 1
	perLevel := make([][]PrefixCount, len(kept))
	for j, lvl := range kept {
		perLevel[j] = make([]PrefixCount, len(lvl))
		for i, ic := range lvl {
			perLevel[j][i] = PrefixCount{Prefix: ic.Item, Level: j, Count: ic.Count}
		}
	}
	// Discount: each prefix's residual subtracts its reported children
	// one level finer.
	for j := 1; j <= top; j++ {
		childSum := make(map[core.Item]int64, len(perLevel[j-1]))
		for _, c := range perLevel[j-1] {
			childSum[core.Item(uint64(c.Prefix)>>h.bits)] += c.Count
		}
		for i := range perLevel[j] {
			perLevel[j][i].Residual = perLevel[j][i].Count - childSum[perLevel[j][i].Prefix]
		}
	}
	for i := range perLevel[0] {
		perLevel[0][i].Residual = perLevel[0][i].Count
	}
	var out []PrefixCount
	for j := top; j >= 0; j-- {
		lvl := perLevel[j]
		sortPrefixesByCountDesc(lvl)
		for i := range lvl {
			lvl[i].HHH = lvl[i].Residual >= threshold
		}
		out = append(out, lvl...)
	}
	return out
}

// sortPrefixesByCountDesc orders a level's report by descending count,
// ties by ascending prefix, matching core.SortByCountDesc's determinism.
func sortPrefixesByCountDesc(s []PrefixCount) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Count != s[j].Count {
			return s[i].Count > s[j].Count
		}
		return s[i].Prefix < s[j].Prefix
	})
}

// Bits returns log2 of the hierarchy's branching factor — the prefix
// granularity step between adjacent levels.
func (h *Hierarchical) Bits() uint { return h.bits }

// UniverseBits returns the number of significant item bits.
func (h *Hierarchical) UniverseBits() uint { return h.universeBits }
