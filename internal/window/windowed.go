package window

import (
	"fmt"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
)

// Windowed is the count-clock ring ("SSW"): Space-Saving blocks of W/B
// items each, lifted to the repository's full summary contract, so
// sliding-window heavy hitters plug into every layer built on
// core.Summary: the concurrency plane's snapshot serving, the registry
// wire format (WN01), checkpoints and WAL recovery, and the cluster
// merge. It answers the recent-past form of the frequent-items question
// — counts over the last W arrivals instead of the whole stream — which
// is the operating point of the paper's trending-queries and hot-flows
// applications.
//
// Contracts, layer by layer:
//
//   - Summary: Update accepts weighted arrivals (count consecutive unit
//     arrivals of the same item, split across block boundaries exactly
//     where scalar arrivals would fall); Estimate/Query answer over the
//     live blocks and are one-sided (never below the true last-W count,
//     above it by at most Slack); N is the total stream length ever
//     seen, as everywhere else — the durability layer's stream-position
//     accounting depends on it. The windowed denominator for φ-style
//     thresholds is WindowN.
//   - BatchUpdater: UpdateBatch splits the batch at block boundaries and
//     feeds each segment through the block's own Space-Saving batch
//     path. Block boundaries depend only on the arrival count, so a WAL
//     replay with the original batch boundaries reproduces the live
//     run's state bit for bit.
//   - Snapshotter: Clone deep-copies the ring, so snapshot serving,
//     checkpoints, and /summary shipping work unchanged.
//   - Merger: windows of identical geometry merge block-by-block
//     aligned by recency — the same mergeable-summaries construction
//     the per-block summaries already use — so a coordinator can serve
//     the union of several nodes' recent traffic. See Merge for the
//     exact semantics.
//
// Durability semantics (the expiring-block contract): a checkpoint
// encodes only the live ring — expired blocks are gone from durable
// state, which is what keeps it O(W) however long the server runs — and
// WAL replay reconstructs block boundaries from the batch records the
// log already preserves, because boundaries are a function of stream
// position alone. A recovered window is therefore bit-identical (via
// WN01) to a fresh window fed exactly the durable prefix with the
// original batch boundaries; recovery_test.go pins this.
type Windowed struct {
	size, blocks, blockLen, k int
	ring                      *ring
	// cur is the block clock: the number of the block being filled,
	// advanced once per W/B arrivals.
	cur       int64
	curFill   int
	liveCount int64 // items the live blocks hold (≤ coverage + W/B unmerged)
	n         int64 // total items ever seen
	// coverage is the total window span represented: W for a single
	// stream, summed under Merge (a merged summary covers one window per
	// contributing node). It is the cap WindowN applies to the live item
	// count.
	coverage int64
}

// NewWindowed returns a sliding-window summary over the most recent
// size items, covered by blocks Space-Saving summaries of k counters
// each; size must be a multiple of blocks. The geometry bounds match
// what the WN01 decoder accepts, so any window that can be constructed
// can also be checkpointed and recovered — an over-bound configuration
// fails here, at startup, not at recovery time with an unreadable data
// directory.
func NewWindowed(size, blocks, k int) (*Windowed, error) {
	if size <= 0 || blocks <= 0 || k <= 0 {
		return nil, fmt.Errorf("window: size, blocks, k must be positive")
	}
	if size%blocks != 0 {
		return nil, fmt.Errorf("window: size %d not a multiple of blocks %d", size, blocks)
	}
	if blocks > maxWNBlocks || k > maxWNCounters || int64(size) > maxWNSize {
		return nil, fmt.Errorf("window: geometry out of range (W=%d B=%d k=%d; max %d/%d/%d)",
			size, blocks, k, maxWNSize, maxWNBlocks, maxWNCounters)
	}
	s := newWindowed(size, blocks, k, int64(size))
	s.ring.open(0)
	return s, nil
}

// newWindowed builds an empty ring of the given geometry; NewWindowed
// and the WN01 decoder fill it.
func newWindowed(size, blocks, k int, coverage int64) *Windowed {
	return &Windowed{
		size:     size,
		blocks:   blocks,
		blockLen: size / blocks,
		k:        k,
		ring:     newRing(blocks, func() core.Summary { return counters.NewSpaceSavingHeap(k) }),
		coverage: coverage,
	}
}

// Name implements core.Summary. "SSW" = Space-Saving, windowed.
func (s *Windowed) Name() string { return "SSW" }

// Size returns the window length W.
func (s *Windowed) Size() int { return s.size }

// N returns the total number of items ever observed.
func (s *Windowed) N() int64 { return s.n }

// Slack returns the maximum overestimation of any windowed estimate: the
// sum of per-block Space-Saving slack plus one boundary block of expired
// items.
func (s *Windowed) Slack() int64 {
	return int64(s.blocks+1)*int64(s.blockLen)/int64(s.k) + int64(s.blockLen)
}

// WindowN returns the windowed stream length — the denominator for
// φ-style thresholds over recent traffic: the live item count, capped
// at the window span (live counts run up to W + W/B while the boundary
// block drains, and capping keeps φ·WindowN at the φ·W operating point
// there). The serving layer uses it to turn /topk?phi= into a
// recent-traffic threshold instead of a whole-history one.
func (s *Windowed) WindowN() int64 { return min(s.liveCount, s.coverage) }

// fillSegments walks total arrivals through the ring, one segment per
// block-boundary crossing: apply feeds the next m arrivals into the
// block being filled, then the shared accounting advances the fill and
// the block clock. Both ingest paths run through this single walk, so
// the boundary and liveCount rules cannot drift apart — which is what
// the bit-identical WAL-replay contract leans on.
func (s *Windowed) fillSegments(total int64, apply func(block core.Summary, m int64)) {
	for total > 0 {
		m := min(int64(s.blockLen-s.curFill), total)
		apply(s.ring.open(s.cur), m)
		s.n += m
		s.liveCount += m
		s.curFill += int(m)
		if s.curFill == s.blockLen {
			// The next block opens now, expiring the block B+1 before
			// it: boundaries are a pure function of the arrival count.
			s.cur++
			if old := s.ring.slots[s.ring.slot(s.cur)]; old != nil {
				s.liveCount -= old.N()
			}
			s.ring.open(s.cur)
			s.curFill = 0
		}
		total -= m
	}
}

// Update implements core.Summary for the insert-only model: count
// consecutive arrivals of x, split across block boundaries exactly as
// count scalar arrivals would be. count must be positive.
func (s *Windowed) Update(x core.Item, count int64) {
	if count <= 0 {
		panic("window: Windowed requires positive update counts (insert-only stream model)")
	}
	s.fillSegments(count, func(block core.Summary, m int64) { block.Update(x, m) })
}

// UpdateBatch implements core.BatchUpdater: the batch is split at block
// boundaries and each segment ingested through the block summary's own
// batch path, so the amortized Space-Saving costs carry over and the
// resulting state depends only on the stream content and the batch
// boundaries — the exact reproducibility the WAL replay contract needs.
func (s *Windowed) UpdateBatch(items []core.Item) {
	s.fillSegments(int64(len(items)), func(block core.Summary, m int64) {
		core.UpdateAll(block, items[:m])
		items = items[m:]
	})
}

// Estimate returns an upper-bound estimate of x's count within the
// window (plus the boundary block): the sum of the live blocks'
// estimates.
func (s *Windowed) Estimate(x core.Item) int64 {
	var total int64
	for _, b := range s.ring.slots {
		if b != nil {
			total += max(b.Estimate(x), 0)
		}
	}
	return total
}

// Query returns the items whose windowed estimate reaches threshold,
// descending. Recall guarantee: any item with at least threshold
// occurrences in the current window is reported, because block summaries
// never underestimate.
func (s *Windowed) Query(threshold int64) []core.ItemCount {
	return s.ring.merged(s.cur).Query(threshold)
}

// Bytes reports the footprint of all live block summaries.
func (s *Windowed) Bytes() int { return s.ring.bytes() }

// Clone returns an independent deep copy: every live block is cloned
// and the ring position and accounting copied verbatim, so the clone
// serves exactly the parent's current window and neither side ever
// observes the other's subsequent arrivals.
func (s *Windowed) Clone() *Windowed {
	c := *s
	c.ring = s.ring.clone()
	return &c
}

// Snapshot implements core.Snapshotter.
func (s *Windowed) Snapshot() core.Summary { return s.Clone() }

// Merge combines another windowed summary of identical geometry (same
// W, B, k) into this one, block-by-block aligned by recency: the other
// side's freshest block folds into the receiver's freshest, its second-
// freshest into the second-freshest, and so on, each per-block merge
// being the Space-Saving mergeable-summaries construction. The result
// answers for the union of the two recent windows — every item frequent
// in either node's last W arrivals stays reported, estimates never
// underestimate the union's windowed count, and the per-side slacks
// add. coverage sums (the merged summary spans one window per node), so
// WindowN keeps φ-thresholds meaningful over the union.
//
// The merged summary is a serving artifact: it answers queries and
// re-encodes deterministically (coordinators stack), but block
// boundaries are per-stream, so continuing to *ingest* into a merged
// summary rotates on the receiver's own fill cadence only.
func (s *Windowed) Merge(other core.Summary) error {
	o, ok := other.(*Windowed)
	if !ok {
		return core.Incompatible("Windowed: cannot merge %T", other)
	}
	if o.size != s.size || o.blocks != s.blocks || o.k != s.k {
		return core.Incompatible("Windowed: geometry mismatch (W=%d/%d, B=%d/%d, k=%d/%d)",
			s.size, o.size, s.blocks, o.blocks, s.k, o.k)
	}
	for age := int64(0); age <= int64(s.blocks); age++ {
		ob := o.ring.slots[o.ring.slot(o.cur-age)]
		if ob == nil || ob.N() == 0 {
			continue
		}
		i := s.ring.slot(s.cur - age)
		if rb := s.ring.slots[i]; rb != nil {
			if err := rb.(core.Merger).Merge(ob); err != nil {
				return err
			}
		} else {
			s.ring.slots[i], s.ring.blockNo[i] = ob.(core.Snapshotter).Snapshot(), s.cur-age
		}
	}
	s.n += o.n
	s.coverage += o.coverage
	s.liveCount = 0
	for _, b := range s.ring.slots {
		if b != nil {
			s.liveCount += b.N()
		}
	}
	return nil
}

// Stats is the windowed observability snapshot: freqd's /stats window
// section (its JSON names) and /v1/metrics gauges (its metric tags).
// It puts the window shape and its error accounting next to the
// whole-stream n, so operators can read the φ·W operating point
// (window_n), the certified overestimate bound (slack), and how much of
// the boundary block is expired but still counted.
type Stats struct {
	// Size is the window length W; Blocks the block count B; BlockLen
	// W/B; K the per-block counter budget.
	Size     int `json:"size"`
	Blocks   int `json:"blocks"`
	BlockLen int `json:"block_len"`
	K        int `json:"k"`
	// N is the total arrivals ever seen (the document's own n); Live
	// the items currently represented in the ring (up to W + W/B);
	// WindowN the capped φ-threshold denominator; Coverage the summed
	// window span (W per merged stream).
	N        int64 `json:"-"`
	Live     int64 `json:"window_live" metric:"freq_window_live" help:"Live (unexpired) items tracked by the window."`
	WindowN  int64 `json:"window_n" metric:"freq_window_n" help:"Items inside the sliding window."`
	Coverage int64 `json:"coverage"`
	// Slack bounds the overestimation of any windowed estimate.
	Slack int64 `json:"slack" metric:"freq_window_slack" help:"Certified overestimate slack of the window."`
	// BoundaryExpired is how many already-expired items the boundary
	// (oldest) block still counts — Live − WindowN, between 0 and
	// BlockLen for an unmerged window.
	BoundaryExpired int64 `json:"boundary_expired"`
}

// WindowStats reports the window's current shape and error accounting.
func (s *Windowed) WindowStats() Stats {
	return Stats{
		Size:            s.size,
		Blocks:          s.blocks,
		BlockLen:        s.blockLen,
		K:               s.k,
		N:               s.n,
		Live:            s.liveCount,
		WindowN:         s.WindowN(),
		Coverage:        s.coverage,
		Slack:           s.Slack(),
		BoundaryExpired: s.liveCount - s.WindowN(),
	}
}
