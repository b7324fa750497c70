// Package window answers the frequent-items question over recent
// traffic instead of the whole stream: the last W items (Windowed,
// freqd -window) or the last span of wall time (MultiRes, freqd
// -horizons). This is the "recent trends" extension the VLDB 2008
// study's applications call for: queries trending today, flows hot
// right now.
//
// Both modes are one block decomposition, the ring: B+1 slots, each
// holding one block summary tagged with its absolute block number. A
// block clock numbers the blocks: the stream position in units of W/B
// for Windowed, wall time in units of span/B for MultiRes. Block b
// lives in slot b mod (B+1), so opening a block recycles the slot of
// the block B+1 before it.
//
// One coverage rule serves both. A query merges every live block — a
// fresh block summary plus Merge of each non-empty one, in slot order.
// The live blocks are the B+1 newest: B full blocks plus the one being
// filled, which together cover at least the window or horizon. Block
// summaries that never underestimate (Space-Saving, Count-Min) therefore
// never estimate an item below its true recent count, and report every
// item at or above φ of the denominator. The denominator counts at most
// the window or horizon: min(live items, W) for Windowed, the blocks
// that opened inside the horizon for MultiRes. The extra block is the
// price: the oldest live block may still count up to W/B expired items,
// which Windowed reports in Slack.
package window

import (
	"fmt"

	"streamfreq/internal/core"
)

// ring is the block ring both recency modes share. The caller owns the
// block clock and passes block numbers in; the ring keeps the blocks.
type ring struct {
	slots   []core.Summary // B+1 block summaries; nil = never opened
	blockNo []int64        // absolute block number each slot holds
	factory func() core.Summary
}

func newRing(blocks int, factory func() core.Summary) *ring {
	return &ring{
		slots:   make([]core.Summary, blocks+1),
		blockNo: make([]int64, blocks+1),
		factory: factory,
	}
}

// slot returns the slot block b lives in. Block numbers may be negative
// (a merge into a young window fills blocks older than its first).
func (r *ring) slot(b int64) int {
	n := int64(len(r.slots))
	return int((b%n + n) % n)
}

// open returns block b's summary, starting a fresh one in its slot if
// the slot holds another block.
func (r *ring) open(b int64) core.Summary {
	i := r.slot(b)
	if r.slots[i] == nil || r.blockNo[i] != b {
		r.slots[i], r.blockNo[i] = r.factory(), b
	}
	return r.slots[i]
}

// live reports whether slot i holds one of the B+1 blocks up to cur.
func (r *ring) live(i int, cur int64) bool {
	b := r.blockNo[i]
	return r.slots[i] != nil && b <= cur && b > cur-int64(len(r.slots))
}

// merged returns a fresh block summary with every non-empty live block
// up to cur merged in, in slot order: the one summary a query reads.
func (r *ring) merged(cur int64) core.Summary {
	m := r.factory()
	for i, b := range r.slots {
		if !r.live(i, cur) || b.N() == 0 {
			continue
		}
		if err := m.(core.Merger).Merge(b); err != nil {
			// Blocks come from one factory, so they cannot mismatch; a
			// failure here is a wiring bug, not an operational state.
			panic(fmt.Sprintf("window: block merge failed: %v", err))
		}
	}
	return m
}

// clone deep-copies every opened block.
func (r *ring) clone() *ring {
	c := &ring{
		slots:   make([]core.Summary, len(r.slots)),
		blockNo: append([]int64(nil), r.blockNo...),
		factory: r.factory,
	}
	for i, b := range r.slots {
		if b != nil {
			c.slots[i] = b.(core.Snapshotter).Snapshot()
		}
	}
	return c
}

// bytes sums the footprint of every opened block.
func (r *ring) bytes() int {
	total := 0
	for _, b := range r.slots {
		if b != nil {
			total += b.Bytes()
		}
	}
	return total
}
