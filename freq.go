package streamfreq

import (
	"fmt"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/quantile"
	"streamfreq/internal/sketches"
	"streamfreq/internal/window"
)

// Item identifies a stream element.
type Item = core.Item

// ItemCount pairs an item with an estimated or exact count.
type ItemCount = core.ItemCount

// Summary is the interface implemented by every algorithm: see
// core.Summary for the full contract.
type Summary = core.Summary

// BatchUpdater is implemented by summaries with a native amortized path
// for batches of unit-count arrivals; see core.BatchUpdater for the
// contract. Frequent, both Space-Saving variants, the flat sketches, and
// the concurrency plane (Concurrent, Pipelined) implement it; use
// UpdateAll to ingest through the fastest available path uniformly.
type BatchUpdater = core.BatchUpdater

// Snapshotter is implemented by summaries that can produce an
// independent point-in-time deep copy of themselves; every algorithm in
// the registry does. Snapshots are the serving primitive: Concurrent and
// Pipelined answer queries from epoch snapshots (ServeSnapshots) so
// readers never block ingest, and a snapshot can be serialized or merged
// while its parent keeps ingesting. See core.Snapshotter for the exact
// independence contract.
type Snapshotter = core.Snapshotter

// Merger is implemented by summaries that combine with a same-typed,
// same-parameter summary.
type Merger = core.Merger

// Subtractor is implemented by linear sketches that can compute stream
// differences.
type Subtractor = core.Subtractor

// ErrIncompatible is returned by Merge and Subtract when operands don't
// match.
var ErrIncompatible = core.ErrIncompatible

// DefaultBatchSize is the ingest batch length used by UpdateBatches (and
// the bundled tools) when the caller does not choose one.
const DefaultBatchSize = core.DefaultBatchSize

// UpdateAll feeds one unit-count arrival per element of items into s,
// through s's native batch path when it implements BatchUpdater and the
// scalar Update loop otherwise.
func UpdateAll(s Summary, items []Item) { core.UpdateAll(s, items) }

// UpdateBatches replays items into s in bounded batches (batch <= 0
// selects DefaultBatchSize), keeping batching summaries' scratch space
// independent of stream length.
func UpdateBatches(s Summary, items []Item, batch int) { core.UpdateBatches(s, items, batch) }

// Replay is the replay policy shared by the harness and the CLIs'
// -batch flag: a negative batch forces the scalar per-item Update loop
// (the pre-batching code path, kept for A/B throughput comparisons);
// any other value replays through UpdateBatches.
func Replay(s Summary, items []Item, batch int) {
	if batch < 0 {
		for _, it := range items {
			s.Update(it, 1)
		}
		return
	}
	core.UpdateBatches(s, items, batch)
}

// NewFrequent returns the Misra–Gries summary ("F") with k counters:
// deterministic, insert-only, estimates underestimate by at most n/(k+1).
func NewFrequent(k int) *counters.Frequent { return counters.NewFrequent(k) }

// NewLossyCounting returns the Manku–Motwani summary ("LC") with error
// parameter epsilon; estimates underestimate by at most εn.
func NewLossyCounting(epsilon float64) *counters.LossyCounting {
	return counters.NewLossyCounting(epsilon, counters.VariantLC)
}

// NewLossyCountingD returns the LCD variant, which reports count+Δ upper
// bounds instead of observed counts.
func NewLossyCountingD(epsilon float64) *counters.LossyCounting {
	return counters.NewLossyCounting(epsilon, counters.VariantLCD)
}

// NewSpaceSaving returns the Space-Saving summary with a min-heap
// ("SSH") and k counters: deterministic, insert-only, estimates
// overestimate by at most n/k.
func NewSpaceSaving(k int) *counters.SpaceSavingHeap {
	return counters.NewSpaceSavingHeap(k)
}

// NewSpaceSavingList returns the Stream-Summary (linked-list) variant
// ("SSL") of Space-Saving, with O(1) unit updates.
func NewSpaceSavingList(k int) *counters.SpaceSavingList {
	return counters.NewSpaceSavingList(k)
}

// NewStickySampling returns the Manku–Motwani probabilistic baseline.
func NewStickySampling(support, epsilon, delta float64, seed uint64) *counters.StickySampling {
	return counters.NewStickySampling(support, epsilon, delta, seed)
}

// NewFilteredSpaceSaving returns the Filtered Space-Saving refinement
// (extension; Homem & Carvalho 2010): a hashed error filter in front of
// the monitored set cuts spurious replacements on low-skew streams.
// filterCells = 0 selects the recommended 8k cells.
func NewFilteredSpaceSaving(k, filterCells int, seed uint64) *counters.FilteredSpaceSaving {
	return counters.NewFilteredSpaceSaving(k, filterCells, seed)
}

// NewCountMin returns a depth×width Count-Min sketch ("CM"). Flat
// sketches answer point queries only; combine with NewTracked or use
// NewCountMinHierarchy for heavy-hitter queries.
func NewCountMin(depth, width int, seed uint64) *sketches.CountMin {
	return sketches.NewCountMin(depth, width, seed)
}

// NewCountMinConservative returns the conservative-update ablation
// variant ("CMC").
func NewCountMinConservative(depth, width int, seed uint64) *sketches.CountMin {
	return sketches.NewCountMinConservative(depth, width, seed)
}

// NewCountSketch returns a depth×width Count Sketch ("CS").
func NewCountSketch(depth, width int, seed uint64) *sketches.CountSketch {
	return sketches.NewCountSketch(depth, width, seed)
}

// HierarchyConfig re-exports the hierarchical sketch configuration.
type HierarchyConfig = sketches.HierarchyConfig

// NewCountMinHierarchy returns the paper's CMH structure: a dyadic stack
// of Count-Min sketches supporting threshold queries over the universe.
func NewCountMinHierarchy(cfg HierarchyConfig) (*sketches.Hierarchical, error) {
	return sketches.NewCountMinHierarchy(cfg)
}

// NewCountSketchHierarchy returns the Count-Sketch equivalent ("CSH").
func NewCountSketchHierarchy(cfg HierarchyConfig) (*sketches.Hierarchical, error) {
	return sketches.NewCountSketchHierarchy(cfg)
}

// NewCGT returns the Combinatorial Group Testing sketch.
func NewCGT(depth, width int, universeBits uint, seed uint64) *sketches.CGT {
	return sketches.NewCGT(depth, width, universeBits, seed)
}

// NewTracked wraps a flat sketch with the Charikar et al. top-capacity
// heap, turning point estimates into heavy-hitter reports.
func NewTracked(inner Summary, capacity int) *core.Tracked {
	return core.NewTracked(inner, capacity)
}

// NewConcurrent makes any summary safe for concurrent use: the
// concurrency plane in its one-shard mode, where every write applies
// synchronously under the summary's one mutex. Call ServeSnapshots on
// the result to answer queries from epoch snapshots instead of locking
// the summary on every read.
func NewConcurrent(inner Summary) *core.Concurrent { return core.NewConcurrent(inner) }

// NewPipelined builds the sharded ingest plane: updates are staged
// into per-shard MPSC rings and applied in claimed stream order by one
// drainer goroutine per shard, so concurrent writers never contend on
// a summary mutex while keeping ingest bit-identical to sequential
// batching. The factory must produce mergeable summaries with
// identical parameters (for sketches, identical seeds); call Close to
// stop the drainers. Call ServeSnapshots on the result for lock-free
// snapshot reads; Snapshot merges per-shard clones into one
// independent summary of the whole stream. See core.Pipelined for the
// ordering and durability guarantees.
func NewPipelined(shards int, factory func() Summary) *core.Pipelined {
	return core.NewPipelined(shards, factory)
}

// NewWindowed returns the sliding window lifted to the full summary
// contract ("SSW"): Summary + BatchUpdater + Snapshotter + Merger with
// the WN01 wire format, so it serves, checkpoints, recovers, and merges
// through the same machinery as the whole-stream summaries. size must
// be a multiple of blocks.
func NewWindowed(size, blocks, k int) (*window.Windowed, error) {
	return window.NewWindowed(size, blocks, k)
}

// NewWindowedForPhi provisions a windowed summary for threshold phi
// over the last size items with blocks blocks: each block gets the
// canonical counter budget k = ⌈1/φ⌉, the same equal-guarantee sizing
// the registry applies to the flat counter summaries.
func NewWindowedForPhi(phi float64, size, blocks int) (*window.Windowed, error) {
	if phi <= 0 || phi >= 1 {
		return nil, fmt.Errorf("streamfreq: phi must be in (0,1), got %g", phi)
	}
	return window.NewWindowed(size, blocks, kForPhi(phi))
}

// NewQuantile returns a Greenwald–Khanna ε-approximate quantile summary,
// the companion summary class of the frequent-items toolbox. Since PR 9
// GK implements the full summary contract (Summary, BatchUpdater,
// Snapshotter, Merger, GK01 wire format), so it serves, checkpoints,
// recovers, and merges like every roster algorithm; see
// internal/quantile.
func NewQuantile(epsilon float64) *quantile.GK { return quantile.New(epsilon) }

// NewQuantileForPhi provisions a GK summary with ε = φ/2, the same
// equal-guarantee sizing the registry applies to the sketches (width 2/φ
// gives ε = φ/2), so `freqd -algo gk` at a given -phi is comparable to
// the sketch configurations at that φ. Equal-φ summaries are mergeable.
func NewQuantileForPhi(phi float64) (*quantile.GK, error) {
	if phi <= 0 || phi >= 1 {
		return nil, fmt.Errorf("streamfreq: phi must be in (0,1), got %g", phi)
	}
	return quantile.New(phi / 2), nil
}

// HashString maps a string key (search query, URL, flow tuple) to an
// Item; HashBytes is the []byte equivalent.
func HashString(key string) Item { return core.HashString(key) }

// HashBytes maps a byte-slice key to an Item.
func HashBytes(key []byte) Item { return core.HashBytes(key) }
