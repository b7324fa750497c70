package core

import "fmt"

// Durability integration for the plane. The plane does not know how
// bytes reach disk — internal/persist does — but write-ahead logging
// needs three guarantees only the plane can give, because it owns the
// ingest order:
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
// by cmd/freqd (and tests) at startup, before the plane is shared.
type Persister interface {
	// AppendBatch logs one unit-count batch, exactly as passed to
	// UpdateBatch. The callee must not retain items.
	AppendBatch(items []Item)
	// AppendUpdate logs one weighted update, exactly as passed to
	// Update. count may be negative for turnstile summaries.
	AppendUpdate(x Item, count int64)
}

// PersistTo routes every subsequent update through pr before it is
// applied (or staged), in apply order. Configure before the plane is
// shared between goroutines, like ServeSnapshots. Persistence failures
// are the Persister's to surface (persist.Store keeps a sticky error);
// the plane keeps applying, so the summary stays available while
// unsynced durability is lost — the serving layer decides whether to
// stop accepting writes.
func (p *plane) PersistTo(pr Persister) {
	p.persist = pr
	p.walTurn.Store(p.cursor.Load())
}

// SnapshotBarrier clones every shard at one quiesced cross-shard
// position and, at the same instant, hands the clones' total stream
// position to cut — the write-ahead log rotates segments there, so
// every logged record is unambiguously before or after the clones. It
// returns the state as independent per-shard deep copies (one for
// Concurrent). cut may be nil.
func (p *plane) SnapshotBarrier(cut func(n int64)) []Summary {
	var views []Summary
	p.quiesce(func(uint64) {
		views = p.clones()
		if cut != nil {
			cut(sumN(views))
		}
	})
	return views
}

// RestoreState replaces each shard's summary with the corresponding
// recovered shard and resets the acknowledged stream position to the
// restored state's; the serving epoch, when enabled, is re-taken. The
// count must match the plane's shard count: a checkpoint taken at
// -shards 8 cannot restore into -shards 4 (per-item shard residency
// would change under the recovered counters), so the operator
// re-shards by restarting with the original count. Setup-time only
// (startup recovery, before concurrent writers).
func (p *plane) RestoreState(shards []Summary) error {
	if len(shards) != len(p.shards) {
		return fmt.Errorf("core: restore needs %d shards, got %d (restart with the checkpoint's shard count)",
			len(p.shards), len(shards))
	}
	p.quiesce(func(uint64) {
		copy(p.shards, shards)
		p.claimedN.Store(sumN(shards))
	})
	if p.serving {
		p.refresh(true)
	}
	return nil
}
