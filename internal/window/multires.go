package window

import (
	"fmt"
	"sort"
	"time"

	"streamfreq/internal/core"
)

// MultiRes is the wall-clock ring composed over any registry summary
// for multi-resolution serving: one ingest stream feeds one ring per
// configured horizon (1m, 1h, 1d, …), and a query for a horizon merges
// that ring's live blocks into one summary of at least the last-horizon
// traffic.
//
// A horizon's block clock is wall time in units of span/B (rounded up
// to whole nanoseconds, so B blocks span at least the horizon). Blocks
// are opened lazily — an idle span costs nothing — and a slot is
// recycled when its block number comes around again. A view covers the
// B+1 newest blocks, between span and span + span/B of trailing time, so
// with never-underestimating block summaries no estimate falls below an
// item's true count in the horizon. The view's N, the φ·N denominator,
// counts only the blocks that opened inside the horizon (the B newest
// when B divides the span), so it never exceeds the horizon's true
// event count.
//
// MultiRes is a serving composition, not a wire citizen: it has no
// magic-versioned format and no Merger, so it is memory-only — freqd
// rejects -horizons with -data-dir. Replaying a wall-clock ring needs
// each WAL batch's ingest time, which today's records do not carry.
type MultiRes struct {
	horizons []horizon
	n        int64
	name     string
	now      func() time.Time
}

// horizon is one servable span and its ring; block is the clock's unit
// in nanoseconds.
type horizon struct {
	span  time.Duration
	block int64
	ring  *ring
}

// MultiResConfig parameterizes a MultiRes.
type MultiResConfig struct {
	// Horizons are the servable wall-clock spans, e.g. 1m, 1h, 24h.
	Horizons []time.Duration
	// Blocks is B, the number of blocks per horizon (default 8): finer
	// horizon alignment for more merge work per query. Each ring keeps
	// B+1 block summaries.
	Blocks int
	// Factory builds one block summary; the product must implement
	// Snapshotter and Merger (every registry algorithm does).
	Factory func() core.Summary
	// Now injects the clock; nil means time.Now. Tests drive a fake.
	Now func() time.Time
}

// NewMultiRes validates the configuration and builds the serving
// composition.
func NewMultiRes(cfg MultiResConfig) (*MultiRes, error) {
	if len(cfg.Horizons) == 0 {
		return nil, fmt.Errorf("window: MultiRes needs at least one horizon")
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("window: MultiRes needs a bucket summary factory")
	}
	if cfg.Blocks == 0 {
		cfg.Blocks = 8
	}
	if cfg.Blocks < 1 {
		return nil, fmt.Errorf("window: MultiRes blocks must be positive")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	probe := cfg.Factory()
	if _, ok := probe.(core.Snapshotter); !ok {
		return nil, fmt.Errorf("window: MultiRes bucket summary %s does not implement Snapshotter", probe.Name())
	}
	if _, ok := probe.(core.Merger); !ok {
		return nil, fmt.Errorf("window: MultiRes bucket summary %s does not implement Merger", probe.Name())
	}
	m := &MultiRes{name: "MR-" + probe.Name(), now: cfg.Now}
	spans := append([]time.Duration(nil), cfg.Horizons...)
	sort.Slice(spans, func(i, j int) bool { return spans[i] < spans[j] })
	for i, span := range spans {
		if span < time.Duration(cfg.Blocks) {
			return nil, fmt.Errorf("window: MultiRes horizon %v shorter than its block count", span)
		}
		if i > 0 && span == spans[i-1] {
			return nil, fmt.Errorf("window: duplicate MultiRes horizon %v", span)
		}
		blocks := int64(cfg.Blocks)
		m.horizons = append(m.horizons, horizon{
			span:  span,
			block: (int64(span) + blocks - 1) / blocks,
			ring:  newRing(cfg.Blocks, cfg.Factory),
		})
	}
	return m, nil
}

// Update implements core.Summary: the arrival lands in every horizon's
// current block.
func (m *MultiRes) Update(x core.Item, count int64) {
	t := m.now().UnixNano()
	for _, h := range m.horizons {
		h.ring.open(t/h.block).Update(x, count)
	}
	m.n += count
}

// UpdateBatch implements core.BatchUpdater: one block lookup per
// horizon per batch.
func (m *MultiRes) UpdateBatch(items []core.Item) {
	if len(items) == 0 {
		return
	}
	t := m.now().UnixNano()
	for _, h := range m.horizons {
		core.UpdateAll(h.ring.open(t/h.block), items)
	}
	m.n += int64(len(items))
}

// Horizons returns the configured spans, ascending.
func (m *MultiRes) Horizons() []time.Duration {
	out := make([]time.Duration, len(m.horizons))
	for i, h := range m.horizons {
		out[i] = h.span
	}
	return out
}

// HorizonView merges the named horizon's live blocks into an immutable
// read view whose N is the horizon's event count: Query(φ·N) over the
// view asks "heavy over the last d", the wall-clock analogue of the
// windowed summary's WindowN threshold scaling. The view is a fresh
// summary, so it never mutates ring state — safe against a shared
// serving snapshot.
func (m *MultiRes) HorizonView(d time.Duration) (core.ReadView, error) {
	for _, h := range m.horizons {
		if h.span == d {
			return m.viewOf(h), nil
		}
	}
	return nil, fmt.Errorf("window: horizon %v not configured (have %v)", d, m.Horizons())
}

func (m *MultiRes) viewOf(h horizon) *HorizonView {
	t := m.now().UnixNano()
	cur := t / h.block
	v := &HorizonView{summary: h.ring.merged(cur)}
	for i, b := range h.ring.slots {
		if h.ring.live(i, cur) && h.ring.blockNo[i]*h.block > t-int64(h.span) {
			v.n += b.N()
		}
	}
	return v
}

// HorizonView is the merged read view of one horizon.
type HorizonView struct {
	summary core.Summary
	n       int64
}

// N returns the horizon's event count, counted over the blocks that
// opened inside it — the denominator for φ·N thresholds at this
// horizon.
func (v *HorizonView) N() int64 { return v.n }

// Estimate returns the merged block summaries' estimate.
func (v *HorizonView) Estimate(x core.Item) int64 { return v.summary.Estimate(x) }

// Query returns the merged block summaries' report at threshold.
func (v *HorizonView) Query(threshold int64) []core.ItemCount { return v.summary.Query(threshold) }

// Summary exposes the merged summary so capability queries (HHH, range,
// quantile) dispatch against horizon views too.
func (v *HorizonView) Summary() core.Summary { return v.summary }

// N implements core.Summary: the lifetime arrival count (horizon counts
// come from HorizonView.N).
func (m *MultiRes) N() int64 { return m.n }

// Estimate implements core.Summary over the longest horizon.
func (m *MultiRes) Estimate(x core.Item) int64 {
	return m.viewOf(m.horizons[len(m.horizons)-1]).Estimate(x)
}

// Query implements core.Summary over the longest horizon.
func (m *MultiRes) Query(threshold int64) []core.ItemCount {
	return m.viewOf(m.horizons[len(m.horizons)-1]).Query(threshold)
}

// Name implements core.Summary: "MR-" plus the block algorithm code.
func (m *MultiRes) Name() string { return m.name }

// Bytes sums every opened block.
func (m *MultiRes) Bytes() int {
	total := 0
	for _, h := range m.horizons {
		total += h.ring.bytes()
	}
	return total
}

// Clone returns an independent deep copy (the serving snapshot).
func (m *MultiRes) Clone() *MultiRes {
	c := *m
	c.horizons = make([]horizon, len(m.horizons))
	for i, h := range m.horizons {
		h.ring = h.ring.clone()
		c.horizons[i] = h
	}
	return &c
}

// Snapshot implements core.Snapshotter.
func (m *MultiRes) Snapshot() core.Summary { return m.Clone() }
