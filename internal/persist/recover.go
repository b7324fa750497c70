package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"streamfreq/internal/core"
)

// RecoveryStats describes what startup recovery found and did; the
// checkpoint section of Stats reports it.
type RecoveryStats struct {
	// CheckpointN is the stream position restored from the checkpoint
	// (0 when no checkpoint existed).
	CheckpointN int64 `json:"checkpoint_n"`
	// CheckpointShards is how many per-shard blobs the checkpoint held.
	CheckpointShards int `json:"ckpt_shards"`
	// ReplayedSegments/ReplayedRecords/ReplayedItems/ReplayedBytes count
	// the WAL tail replayed on top of the checkpoint (ReplayedBytes in
	// record bytes, the unit of WALStats.TailBytes). A clean shutdown
	// (final checkpoint, closed log) replays zero records.
	ReplayedSegments int   `json:"-"`
	ReplayedRecords  int   `json:"replayed"`
	ReplayedItems    int64 `json:"-"`
	ReplayedBytes    int64 `json:"-"`
	// TruncatedBytes is the torn tail dropped from the last segment
	// (crash mid-write); TruncatedSegments counts segments it happened
	// to (0 or 1 — only the last segment may legally be torn).
	TruncatedBytes    int64 `json:"truncated_b"`
	TruncatedSegments int   `json:"-"`
	// RecoveredN is the stream position after recovery: CheckpointN plus
	// ReplayedItems, verified against the summary's own N.
	RecoveredN int64 `json:"recovered_n"`
	// Elapsed is the wall-clock time recovery took: checkpoint load, WAL
	// replay and opening the first fresh segment.
	Elapsed time.Duration `json:"-" metric:"freq_wal_recovery_seconds" help:"Seconds startup recovery took (checkpoint load plus WAL replay)."`
}

// Recover rebuilds target from the data directory: load the checkpoint
// (if any), replay the WAL tail through the batched ingest path with
// the original batch boundaries, truncate a torn tail, and verify
// stream-position continuity end to end. It must run once, before
// PersistTo wires the target to the store and before the target is
// shared — recovery drives the target's own Update/UpdateBatch, which
// must not re-append to the log.
//
// The loaded checkpoint's position, size and modification time seed
// the checkpoint stats, and the replayed records seed the tail, so the
// checkpoint age and the replay debt survive a restart.
//
// On a fresh (or empty) directory it recovers nothing and simply opens
// the first segment.
func (st *Store) Recover(target Target) (RecoveryStats, error) {
	start := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	var stats RecoveryStats
	if st.recovered {
		return stats, fmt.Errorf("persist: Recover must run exactly once")
	}
	if st.closed {
		return stats, fmt.Errorf("persist: store is closed")
	}

	// 1. Checkpoint.
	var curN int64
	var minSeq uint64
	var ckptBytes int64
	var ckptTime time.Time
	ckptPath := filepath.Join(st.opts.Dir, ckptName)
	if data, err := os.ReadFile(ckptPath); err == nil {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			// A checkpoint is only ever renamed into place whole, so a
			// parse failure is disk corruption, and the segments it
			// covered are gone — nothing sound to recover from.
			return stats, err
		}
		if ck.algo != st.opts.Algo {
			return stats, fmt.Errorf("persist: checkpoint is for algorithm %q, store configured for %q — wrong data directory?", ck.algo, st.opts.Algo)
		}
		if st.opts.Decode == nil {
			return stats, fmt.Errorf("persist: checkpoint present but Options.Decode is nil")
		}
		tt, tenanted := target.(TenantTarget)
		switch {
		case ck.tenants != nil && !tenanted:
			return stats, fmt.Errorf("persist: checkpoint holds a multi-tenant manifest (%d namespaces) but the target is single-tenant", len(ck.tenants))
		case ck.tenants != nil:
			// Hand blobs over still encoded; the table decodes a tenant
			// the first time it is touched (replay or query), so a
			// million-namespace restart costs no upfront decode sweep.
			if err := tt.RestoreTenants(ck.tenants); err != nil {
				return stats, fmt.Errorf("persist: restoring tenant checkpoint: %w", err)
			}
			stats.CheckpointShards = len(ck.tenants)
		case tenanted && len(ck.blobs) == 1:
			// A pre-tenant (SFCKPT01) directory adopted by a multi-tenant
			// table: its single summary becomes the default namespace
			// (K=0 means "derive the budget from the blob").
			if err := tt.RestoreTenants([]TenantState{{NS: "", Blob: ck.blobs[0]}}); err != nil {
				return stats, fmt.Errorf("persist: restoring legacy checkpoint into the default namespace: %w", err)
			}
			stats.CheckpointShards = 1
		case tenanted:
			return stats, fmt.Errorf("persist: %d-shard legacy checkpoint cannot restore into a multi-tenant table (only single-shard directories adopt)", len(ck.blobs))
		default:
			shards := make([]core.Summary, len(ck.blobs))
			for i, blob := range ck.blobs {
				s, err := st.opts.Decode(blob)
				if err != nil {
					return stats, fmt.Errorf("persist: decoding checkpoint shard %d: %w", i, err)
				}
				shards[i] = s
			}
			if err := target.RestoreState(shards); err != nil {
				return stats, fmt.Errorf("persist: restoring checkpoint: %w", err)
			}
			stats.CheckpointShards = len(ck.blobs)
		}
		if got := target.LiveN(); got != ck.n {
			return stats, fmt.Errorf("persist: restored state is at n=%d, checkpoint header says %d", got, ck.n)
		}
		curN = ck.n
		minSeq = ck.walSeq
		stats.CheckpointN = ck.n
		ckptBytes = int64(len(data))
		if fi, err := os.Stat(ckptPath); err == nil {
			ckptTime = fi.ModTime()
		}
	} else if !os.IsNotExist(err) {
		return stats, fmt.Errorf("persist: reading checkpoint: %w", err)
	}

	// 2. WAL tail.
	seqs, err := st.listSegments()
	if err != nil {
		return stats, err
	}
	live := seqs[:0]
	for _, seq := range seqs {
		if seq < minSeq {
			// Covered by the checkpoint; a crash between its rename and
			// the prune left them behind. Finish the prune.
			_ = os.Remove(st.segPath(seq))
			continue
		}
		live = append(live, seq)
	}
	if minSeq > 0 && (len(live) == 0 || live[0] != minSeq) {
		// The checkpoint's cut segment is created and synced before the
		// checkpoint is renamed into place and survives until the next
		// checkpoint supersedes it, so its absence means the log tail
		// was lost externally — recovering just the checkpoint would
		// silently drop whatever that tail held. (A lost segment later
		// in the chain is caught by the startN continuity check; only
		// trailing segments beyond the last durable rotation are
		// undetectable, the same exposure class as the un-synced tail.)
		return stats, fmt.Errorf("persist: checkpoint expects WAL segment %d, which is missing — log tail lost", minSeq)
	}
	for i, seq := range live {
		path := st.segPath(seq)
		res, err := replaySegment(path, seq, curN, target)
		if err != nil {
			return stats, err
		}
		if res.torn {
			if i != len(live)-1 {
				// Only a crash can tear a segment, and a crash tears the
				// *last* one; damage mid-chain means the disk lied.
				return stats, fmt.Errorf("persist: %s is corrupt mid-chain (%s) with later segments present", path, res.tornWhy)
			}
			fi, statErr := os.Stat(path)
			if statErr == nil {
				stats.TruncatedBytes = fi.Size() - res.validEnd
			}
			stats.TruncatedSegments = 1
			if err := truncateSegment(path, res.validEnd); err != nil {
				return stats, fmt.Errorf("persist: truncating torn tail of %s: %w", path, err)
			}
		}
		if res.records > 0 || !res.torn {
			stats.ReplayedSegments++
		}
		stats.ReplayedRecords += res.records
		stats.ReplayedItems += res.items
		stats.ReplayedBytes += max(res.validEnd-segHeaderSize, 0)
		curN += res.items
	}
	if got := target.LiveN(); got != curN {
		return stats, fmt.Errorf("persist: replayed state is at n=%d, log accounting says %d", got, curN)
	}
	stats.RecoveredN = curN

	// 3. Open a fresh segment for new appends. The torn tail (if any) is
	// already truncated and sealed, so the whole chain behind the new
	// segment is durable.
	seqs, err = st.listSegments()
	if err != nil {
		return stats, err
	}
	st.ioMu.Lock()
	// With no segment left, the next one is the checkpoint's own: its
	// segment was torn in the header and removed, and the next recovery
	// looks for it.
	st.nextSeq = max(minSeq, 1)
	if n := len(seqs); n > 0 {
		st.nextSeq = seqs[n-1] + 1
	}
	if st.nextSeq == 0 {
		st.nextSeq = 1
	}
	st.segCount.Store(int32(len(seqs)))
	st.walN = curN
	st.writtenN = curN
	err = st.rotateLocked(curN)
	st.ioMu.Unlock()
	if err != nil {
		return stats, err
	}
	st.durableN.Store(curN)
	st.recovered = true
	stats.Elapsed = time.Since(start)
	st.stats.RecoveryStats = stats
	st.stats.TailBytes = stats.ReplayedBytes
	st.stats.LastCkptN, st.stats.LastCkptBytes, st.lastCkptTime = stats.CheckpointN, ckptBytes, ckptTime
	st.writeStop = make(chan struct{})
	st.writeDone = make(chan struct{})
	go st.writer()
	return stats, nil
}
