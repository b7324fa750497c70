package counters

import (
	"math"

	"streamfreq/internal/core"
)

// LossyCounting implements the Manku–Motwani lossy counting algorithm
// ("LC" in the paper). The stream is conceptually divided into buckets of
// width w = ⌈1/ε⌉. Each tracked entry stores its observed count and Δ,
// the bucket index when it was inserted minus one — an upper bound on how
// many occurrences were missed before tracking began. At every bucket
// boundary, entries whose count + Δ no longer exceeds the current bucket
// index are pruned.
//
// Invariants, with N the stream length:
//
//	true(x) − εN ≤ Estimate(x) ≤ true(x)
//	every item with true(x) ≥ εN is tracked
//
// Space is O((1/ε)·log(εN)) in the worst case — unlike Frequent and
// Space-Saving, the live entry set can exceed 1/ε, which is exactly the
// space overshoot the paper's space plots show for LC at low skew.
//
// The entries live in the package's counter store (store.go), each keyed
// by its upper bound count + Δ with Δ as its err, so the entries a
// bucket boundary prunes sit at the root of the heap: the prune pops
// them and touches no other entry. No fixed k bounds the live set, so
// the store grows when a new entry finds it full, and never shrinks.
//
// The Variant field distinguishes the paper's two flavors:
//
//   - VariantLC reports the observed count (an underestimate); its Query
//     compensates with +Δ so recall is preserved.
//   - VariantLCD reports count + Δ (an upper bound, like Space-Saving),
//     trading precision for one-sided error in the other direction.
type LossyCounting struct {
	epsilon float64
	width   int64     // bucket width w = ceil(1/epsilon)
	bucket  int64     // current bucket id b = ceil(N/w)
	st      ssStorage // count = observed count + Δ, err = Δ
	n       int64
	variant LCVariant
}

// LCVariant selects the reporting flavor.
type LCVariant int

const (
	// VariantLC reports observed counts (underestimates).
	VariantLC LCVariant = iota
	// VariantLCD reports count+Δ upper bounds.
	VariantLCD
)

// NewLossyCounting returns an LC summary with error parameter epsilon in
// (0, 1).
func NewLossyCounting(epsilon float64, variant LCVariant) *LossyCounting {
	if epsilon <= 0 || epsilon >= 1 {
		panic("counters: LossyCounting requires 0 < epsilon < 1")
	}
	return &LossyCounting{
		epsilon: epsilon,
		width:   int64(math.Ceil(1 / epsilon)),
		bucket:  1,
		st:      newSSStorage(0),
		variant: variant,
	}
}

// Name implements core.Summary.
func (l *LossyCounting) Name() string {
	if l.variant == VariantLCD {
		return "LCD"
	}
	return "LC"
}

// N implements core.Summary.
func (l *LossyCounting) N() int64 { return l.n }

// Update processes count arrivals of x. count must be positive.
func (l *LossyCounting) Update(x core.Item, count int64) {
	mustPositive("LossyCounting", count)
	if id := l.st.lookup(x); id >= 0 {
		l.st.add(id, count)
	} else {
		l.push(x, count, l.bucket-1)
	}
	// A weighted arrival may span several buckets; one prune at the
	// bucket it ends in covers them all.
	l.n += count
	newBucket := (l.n + l.width - 1) / l.width // ceil(n/w)
	if newBucket > l.bucket {
		l.bucket = newBucket
		l.prune()
	}
}

// push tracks x, which must be untracked, with observed count c and Δ =
// delta, growing the store when it is full.
func (l *LossyCounting) push(x core.Item, c, delta int64) {
	if room := cap(l.st.nodes); len(l.st.nodes) == room {
		l.st.grow(room + room/8 + 1)
	}
	l.st.push(x, c+delta, delta)
}

// prune removes the entries whose upper bound count + Δ fell to the
// bucket index b − 1 or below: the heap's root, until it holds more.
func (l *LossyCounting) prune() {
	for len(l.st.heap) > 0 && l.st.hcnt[0] <= l.bucket-1 {
		l.st.popMin()
	}
}

// estimate is the variant's estimate for a tracked entry.
func (l *LossyCounting) estimate(nd *ssNode) int64 {
	if l.variant == VariantLCD {
		return nd.count
	}
	return nd.count - nd.err
}

// Estimate returns the variant-appropriate estimate (0 when untracked).
func (l *LossyCounting) Estimate(x core.Item) int64 {
	if id := l.st.lookup(x); id >= 0 {
		return l.estimate(&l.st.nodes[id])
	}
	return 0
}

// Query returns items that may reach threshold: count + Δ ≥ threshold,
// reported with the variant's estimate, in descending order. For
// threshold = φN with φ > ε this has perfect recall.
func (l *LossyCounting) Query(threshold int64) []core.ItemCount {
	var out []core.ItemCount
	for i := range l.st.nodes {
		if nd := &l.st.nodes[i]; nd.count >= threshold {
			out = append(out, core.ItemCount{Item: nd.item, Count: l.estimate(nd)})
		}
	}
	core.SortByCountDesc(out)
	return out
}

// Clone returns an independent deep copy (the store copied at its
// capacities, parameters and bucket position shared by value).
func (l *LossyCounting) Clone() *LossyCounting {
	nl := *l
	nl.st = l.st.clone()
	return &nl
}

// Snapshot implements core.Snapshotter.
func (l *LossyCounting) Snapshot() core.Summary { return l.Clone() }

// Bytes implements core.Summary: the counter store's footprint. The
// store only grows, so this is the footprint of the largest live set
// the stream needed, not of the entries live now. Like every counter
// decoder's, LC02's sizes the store to the entries the blob carried, so
// after a round trip Bytes reports the footprint of the decoded live
// set until the store grows again.
func (l *LossyCounting) Bytes() int { return l.st.bytes() }

// Merge combines another LossyCounting summary with identical epsilon and
// variant. Counts add; deltas add (each side's Δ bounds its own missed
// mass, and the bound for the concatenation is the sum); the bucket index
// is recomputed from the combined length and a prune pass restores the
// space bound. The merged summary obeys the LC error bound for the
// concatenated stream.
func (l *LossyCounting) Merge(other core.Summary) error {
	o, ok := other.(*LossyCounting)
	if !ok {
		return core.Incompatible("LossyCounting: cannot merge %T", other)
	}
	if o.epsilon != l.epsilon || o.variant != l.variant {
		return core.Incompatible("LossyCounting: parameter mismatch (ε=%g/%g, variant=%d/%d)",
			l.epsilon, o.epsilon, l.variant, o.variant)
	}
	// An item tracked here but not in o may have been missed by o for up
	// to o's pruning bound b − 1 (0 for an empty o); its Δ widens by it.
	for id := range l.st.nodes {
		nd := &l.st.nodes[id]
		add, delta := o.bucket-1, o.bucket-1
		if oid := o.st.lookup(nd.item); oid >= 0 {
			add, delta = o.st.nodes[oid].count, o.st.nodes[oid].err
		}
		nd.err += delta
		l.st.add(int32(id), add)
	}
	for i := range o.st.nodes {
		if ond := &o.st.nodes[i]; l.st.lookup(ond.item) < 0 {
			l.push(ond.item, ond.count-ond.err, ond.err+l.bucket-1)
		}
	}
	l.n += o.n
	l.bucket = max((l.n+l.width-1)/l.width, 1)
	l.prune()
	return nil
}
