package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// Concurrent makes any Summary safe for concurrent use by guarding it
// with a mutex. For higher ingest parallelism use Pipelined, which
// partitions the stream across independent shard summaries, applies
// staged batches off the writers' path, and merges at query time.
//
// By default reads (Estimate, Query, N) take the same mutex as ingest.
// ServeSnapshots switches reads to an epoch-style snapshot path: queries
// are answered from an immutable clone of the summary that is refreshed
// at most once per staleness window, so a storm of readers costs the
// ingest path one clone per window instead of one lock acquisition per
// read.
type Concurrent struct {
	mu    sync.Mutex
	inner Summary

	// persist, when set by PersistTo, receives every update under the
	// ingest lock before it is applied (write-ahead order).
	persist Persister

	// Snapshot serving state. serving and maxStale are set once by
	// ServeSnapshots before concurrent use; version counts mutations
	// (bumped inside the lock, read without it) so an unchanged summary
	// is never re-cloned; snap holds the immutable serving view.
	serving   bool
	maxStale  time.Duration
	version   atomic.Uint64
	snap      atomic.Pointer[snapshotState]
	refreshes atomic.Int64
}

// snapshotState is one immutable serving epoch: a deep copy of the inner
// summary plus the version and time it was taken at. All fields are
// written before the pointer is published and never after.
type snapshotState struct {
	view    Summary
	version uint64
	taken   time.Time
}

// NewConcurrent wraps inner with a mutex.
func NewConcurrent(inner Summary) *Concurrent {
	return &Concurrent{inner: inner}
}

// ServeSnapshots enables snapshot-based reads: Estimate, Query, and N are
// answered from an immutable deep copy of the inner summary instead of
// locking it, so readers never block ingest. The snapshot is refreshed on
// demand with bounded staleness: a read re-clones the summary (one lock
// acquisition, amortized over the whole window) only when the summary has
// changed since the snapshot was taken AND the snapshot is older than
// maxStale. maxStale = 0 means always-fresh: any read that observes a
// mutation re-clones, which keeps reads exact but makes heavy read
// traffic clone-bound — production servers should pick a real window
// (freqd defaults to 100ms).
//
// The inner summary must implement Snapshotter (every registry algorithm
// does); ServeSnapshots panics otherwise. Call it before the wrapper is
// shared between goroutines, like all configuration. It returns c for
// chaining.
func (c *Concurrent) ServeSnapshots(maxStale time.Duration) *Concurrent {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.serving = true
	c.maxStale = maxStale
	c.snap.Store(&snapshotState{view: mustSnapshot(c.inner), taken: time.Now()})
	c.refreshes.Add(1)
	return c
}

// Name implements Summary.
func (c *Concurrent) Name() string { return c.inner.Name() }

// Update implements Summary.
func (c *Concurrent) Update(x Item, count int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.persist != nil {
		c.persist.AppendUpdate(x, count)
	}
	c.inner.Update(x, count)
	if c.serving {
		c.version.Add(1)
	}
}

// UpdateBatch implements BatchUpdater with a single lock acquisition for
// the whole batch, so the per-arrival cost of the mutex is amortized
// away; the inner summary's own batch path is used when it has one.
func (c *Concurrent) UpdateBatch(items []Item) {
	if len(items) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.persist != nil {
		c.persist.AppendBatch(items)
	}
	UpdateAll(c.inner, items)
	if c.serving {
		c.version.Add(1)
	}
}

// reader returns the summary state reads should be answered from: the
// serving snapshot (refreshed if it is both dirty and past the staleness
// bound) when snapshot serving is on, nil when reads must take the lock.
func (c *Concurrent) reader() Summary {
	if !c.serving {
		return nil
	}
	s := c.snap.Load()
	if s.version == c.version.Load() || time.Since(s.taken) <= c.maxStale {
		return s.view
	}
	return c.refresh().view
}

// refresh takes the ingest lock and publishes a fresh snapshot. If
// another reader refreshed while we waited for the lock, its snapshot is
// reused (double-check) so a read storm performs one clone, not one per
// reader.
func (c *Concurrent) refresh() *snapshotState {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.version.Load()
	if cur := c.snap.Load(); cur.version == v {
		return cur
	}
	ns := &snapshotState{view: mustSnapshot(c.inner), version: v, taken: time.Now()}
	c.snap.Store(ns)
	c.refreshes.Add(1)
	return ns
}

// Snapshot implements Snapshotter: it returns an independent deep copy of
// the inner summary, taken under the ingest lock. It panics when the
// inner summary does not implement Snapshotter. Unlike the serving reads
// it always clones fresh state, so callers can checkpoint, serialize, or
// merge the copy while ingest continues.
func (c *Concurrent) Snapshot() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return mustSnapshot(c.inner)
}

// RefreshSnapshot forces a fresh serving snapshot (regardless of the
// staleness bound) and returns its view. It is a no-op returning nil when
// snapshot serving is not enabled. Servers call it to cut over
// deterministically — e.g. freqd's POST /refresh, or tests asserting
// exact post-ingest reads.
func (c *Concurrent) RefreshSnapshot() ReadView {
	if !c.serving {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ns := &snapshotState{view: mustSnapshot(c.inner), version: c.version.Load(), taken: time.Now()}
	c.snap.Store(ns)
	c.refreshes.Add(1)
	return ns.view
}

// ServingView returns the current serving epoch as an immutable
// ReadView (refreshing it first if it is dirty past the staleness
// bound), or nil when snapshot serving is not enabled. Pin the returned
// view to make a multi-read sequence internally consistent: each of
// Estimate/Query/N on the wrapper itself may cross a refresh boundary
// between calls.
func (c *Concurrent) ServingView() ReadView {
	if v := c.reader(); v != nil {
		return v
	}
	return nil
}

// LiveN returns the ingested stream length of the live summary,
// bypassing the serving snapshot: one locked integer read, so ops
// surfaces (freqd /stats) can report the ingest position next to the
// snapshot's AsOfN without forcing a snapshot refresh.
func (c *Concurrent) LiveN() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.N()
}

// SnapshotStats reports the serving snapshot's freshness; all zero when
// serving is not enabled.
func (c *Concurrent) SnapshotStats() SnapshotStats {
	if !c.serving {
		return SnapshotStats{}
	}
	s := c.snap.Load()
	return SnapshotStats{
		Serving:   true,
		AsOfN:     s.view.N(),
		Age:       time.Since(s.taken),
		Refreshes: c.refreshes.Load(),
		MaxStale:  c.maxStale,
	}
}

// Estimate implements Summary. With snapshot serving enabled it is
// answered from the serving snapshot (never blocking ingest); otherwise
// it locks.
func (c *Concurrent) Estimate(x Item) int64 {
	if v := c.reader(); v != nil {
		return v.Estimate(x)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Estimate(x)
}

// Query implements Summary; see Estimate for the snapshot-serving read
// path.
func (c *Concurrent) Query(threshold int64) []ItemCount {
	if v := c.reader(); v != nil {
		return v.Query(threshold)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Query(threshold)
}

// N implements Summary. With snapshot serving enabled it reports the
// snapshot's stream length, so thresholds computed as φ·N() are
// consistent with the state Query answers from.
func (c *Concurrent) N() int64 {
	if v := c.reader(); v != nil {
		return v.N()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.N()
}

// Bytes implements Summary. With snapshot serving enabled the retained
// serving view is charged on top of the live summary.
func (c *Concurrent) Bytes() int {
	var snapBytes int
	if c.serving {
		snapBytes = c.snap.Load().view.Bytes()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Bytes() + snapBytes
}

// shardedSnapshot is an immutable ReadView of a Pipelined plane: one
// clone per shard, routed by the same item hash, so snapshot reads have
// exactly the semantics of locked reads (Estimate routes to the item's
// shard, Query unions the shard reports). The clones are taken at one
// barrier position, so the view is a single cross-shard cut.
type shardedSnapshot struct {
	views   []Summary
	mask    uint64
	version uint64
	taken   time.Time
}

// Estimate implements ReadView by routing to the item's shard view.
func (v *shardedSnapshot) Estimate(x Item) int64 {
	return v.views[shardIndex(x, v.mask)].Estimate(x)
}

// Query implements ReadView as the union of the shard views' reports.
func (v *shardedSnapshot) Query(threshold int64) []ItemCount {
	var out []ItemCount
	for _, view := range v.views {
		out = append(out, view.Query(threshold)...)
	}
	SortByCountDesc(out)
	return out
}

// N implements ReadView as the sum of the shard views' totals.
func (v *shardedSnapshot) N() int64 {
	var n int64
	for _, view := range v.views {
		n += view.N()
	}
	return n
}

// shardIndex spreads low-entropy item spaces across shards with the
// SplitMix64 finalizer. Sharding by item (not round-robin) keeps each
// item's entire count in a single shard, so per-shard guarantees
// translate to global guarantees with per-shard error ε_shard = ε (each
// shard sees a substream).
func shardIndex(x Item, mask uint64) uint64 {
	v := uint64(x)
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	v ^= v >> 31
	return v & mask
}
