package core

import (
	"fmt"
	"time"
)

// Durability integration for the concurrency wrappers. The wrappers do
// not know how bytes reach disk — internal/persist does — but write-ahead
// logging needs three guarantees only the wrappers can give, because they
// own the ingest locks:
//
//   - every ingested update is offered to the log *before* it is applied
//     (WAL-append-before-apply), in apply order, so the log is always a
//     superset-prefix of memory: a crash can lose the un-synced tail,
//     never reorder or invent updates;
//   - a checkpoint can observe the summary and the log position at one
//     quiesced instant (SnapshotBarrier), so "state as of N" and "log
//     records after N" partition the stream exactly;
//   - a recovered state can be injected back before serving starts
//     (RestoreState).
//
// Persister is implemented by persist.Store; the methods here are wired
// by cmd/freqd (and tests) at startup, before the wrapper is shared.
type Persister interface {
	// AppendBatch logs one unit-count batch, exactly as passed to
	// UpdateBatch. The callee must not retain items.
	AppendBatch(items []Item)
	// AppendUpdate logs one weighted update, exactly as passed to
	// Update. count may be negative for turnstile summaries.
	AppendUpdate(x Item, count int64)
}

// PersistTo routes every subsequent update through p before it is
// applied, under the ingest lock, so log order equals apply order.
// Configure before the wrapper is shared between goroutines, like
// ServeSnapshots. Persistence failures are the Persister's to surface
// (persist.Store keeps a sticky error); the wrapper keeps applying, so
// the summary stays available while unsynced durability is lost — the
// serving layer decides whether to stop accepting writes.
func (c *Concurrent) PersistTo(p Persister) { c.persist = p }

// SnapshotBarrier clones the inner summary with ingest quiesced and, at
// the same instant, hands the clone's stream position to cut — the
// write-ahead log rotates segments there, so every logged record is
// unambiguously before or after the clone. It returns the wrapper's
// state as independent per-shard deep copies (always one for
// Concurrent). cut may be nil.
func (c *Concurrent) SnapshotBarrier(cut func(n int64)) []Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := mustSnapshot(c.inner)
	if cut != nil {
		cut(s.N())
	}
	return []Summary{s}
}

// RestoreState replaces the wrapper's summary state with the recovered
// shards — exactly one for Concurrent. It is a setup-time operation
// (startup recovery, before the wrapper is shared); the serving
// snapshot, when already enabled, is re-taken from the restored state.
func (c *Concurrent) RestoreState(shards []Summary) error {
	if len(shards) != 1 {
		return fmt.Errorf("core: Concurrent restore needs 1 shard, got %d", len(shards))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inner = shards[0]
	if c.serving {
		c.snap.Store(&snapshotState{view: mustSnapshot(c.inner), version: c.version.Load(), taken: time.Now()})
		c.refreshes.Add(1)
	}
	return nil
}
