// Package core defines the unified abstraction of the VLDB 2008 comparison
// framework: a common Summary interface implemented by every frequent-items
// algorithm in the repository, the item/count value types, and shared
// helpers (merging, registry, serialization headers).
//
// The central problem definition follows the paper. Given a stream of n
// item arrivals and a threshold φ ∈ (0, 1):
//
//   - FrequentItems(φ): return every item whose true count exceeds φn
//     (perfect recall), and no item whose true count is below (φ−ε)n
//     (approximate precision), together with an estimate of each reported
//     item's count.
//
// Counter-based algorithms guarantee this deterministically when given
// ⌈1/ε⌉ counters; sketch-based algorithms guarantee it with probability
// 1−δ using O((1/ε)·log(1/δ)) counters, but also tolerate deletions and
// support merging by addition.
package core

import (
	"fmt"
	"sort"
)

// Item is a stream element identifier. The paper's experiments use 32-bit
// identifiers; Item is 64-bit so the same code handles larger universes
// (e.g. IPv6 flow keys folded to 64 bits).
type Item uint64

// ItemCount pairs an item with an (estimated or exact) count.
type ItemCount struct {
	Item  Item
	Count int64
}

// Summary is the interface every frequent-items algorithm implements.
// It is the paper's common experimental harness contract.
type Summary interface {
	// Update processes count arrivals of item x. Counter-based algorithms
	// accept only positive counts (insert-only streams); sketches accept
	// negative counts (the turnstile model). Implementations document
	// which model they support; passing a negative count to an
	// insert-only summary panics, as it indicates a harness wiring bug.
	Update(x Item, count int64)

	// Estimate returns the summary's estimate of the total count of x.
	Estimate(x Item) int64

	// Query returns all items whose estimated count is at least
	// threshold, with their estimates, in descending count order.
	Query(threshold int64) []ItemCount

	// N returns the total count of all updates processed (the stream
	// length, for unit-count insert-only streams).
	N() int64

	// Bytes returns the approximate in-memory footprint of the summary,
	// the quantity the paper reports as "space".
	Bytes() int

	// Name returns the short algorithm code used in the paper's plots
	// (e.g. "F", "LC", "SSH", "CMH", "CGT").
	Name() string
}

// Merger is implemented by summaries that can absorb another summary of
// the same type and parameters, producing a summary for the concatenated
// streams. All sketches and Misra–Gries-style counter summaries support
// this; the experiment X2 exercises it.
type Merger interface {
	// Merge folds other into the receiver. It returns an error if the
	// two summaries have incompatible types or parameters.
	Merge(other Summary) error
}

// EstimateMonotone is implemented by summaries that can certify their
// point estimates never decrease while ingesting insert-only unit
// arrivals (Count-Min's min-of-counters estimator qualifies; Count
// Sketch's median of signed counters does not — another item's arrival
// can lower it). Tracked's batched ingest uses this to decide whether
// deferring heap admissions to the end of a batch is safe.
type EstimateMonotone interface {
	// MonotoneEstimates reports whether estimates are currently
	// non-decreasing under unit arrivals (false once deletions have
	// been ingested).
	MonotoneEstimates() bool
}

// Subtractor is implemented by linear sketches, which can compute the
// difference of two streams (the Charikar et al. max-change primitive,
// experiment X1).
type Subtractor interface {
	// Subtract removes other's stream from the receiver, leaving a sketch
	// of the frequency difference vector.
	Subtract(other Summary) error
}

// SortByCountDesc sorts items by descending count, breaking ties by
// ascending item identifier so output order is deterministic.
func SortByCountDesc(s []ItemCount) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Count != s[j].Count {
			return s[i].Count > s[j].Count
		}
		return s[i].Item < s[j].Item
	})
}

// TopK returns the k largest entries (by count) of s, in descending
// order. It copies; s is not modified.
func TopK(s []ItemCount, k int) []ItemCount {
	c := make([]ItemCount, len(s))
	copy(c, s)
	SortByCountDesc(c)
	if k < len(c) {
		c = c[:k]
	}
	return c
}

// ErrIncompatible is returned (wrapped) by Merge/Subtract implementations
// when the operand summary does not match the receiver.
var ErrIncompatible = fmt.Errorf("core: incompatible summaries")

// Incompatible formats a standard incompatibility error.
func Incompatible(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrIncompatible, fmt.Sprintf(format, args...))
}
