package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/wire"
)

// Checkpoint file: magic "SFCKPT01", then a body of
//
//	u32 algo length | algo label
//	u64 stream position N
//	u64 walSeq — the first WAL segment needed on top of this state
//	u32 shard count
//	per shard: u32 blob length | Encode blob
//
// closed by a u32 CRC-32C of the whole body. The file is written to a
// temporary name, fsynced, and renamed over checkpoint.ckpt, so the
// directory always holds exactly one complete checkpoint — the rename
// either happened or it didn't.
//
// Magic "SFCKPT02" extends the body with a named tenant manifest after
// the shard section:
//
//	u32 tenant count
//	per tenant: u16 ns length | ns | u32 k | u64 n | u32 blob length | blob
//
// and relaxes the shard count to allow zero (a multi-tenant table keeps
// all state, the default namespace included, in the tenant section).
// SFCKPT01 files remain decodable — recovery treats them as a tenant
// manifest of zero, and a single-shard 01 checkpoint restores into a
// TenantTarget's default namespace.

const (
	ckptMagic  = "SFCKPT01"
	ckptMagic2 = "SFCKPT02"
	ckptName   = "checkpoint.ckpt"
	// maxCkptShards/maxCkptTenants/maxCkptBlob bound a corrupt header's
	// allocations.
	maxCkptShards  = 1 << 12
	maxCkptTenants = 1 << 24
	maxCkptBlob    = 1 << 30
)

// checkpoint is a parsed checkpoint file.
type checkpoint struct {
	algo    string
	n       int64
	walSeq  uint64
	blobs   [][]byte
	tenants []TenantState // Blob set; Summary nil
}

// encodeCheckpoint renders the file bytes: the SFCKPT01 layout when the
// checkpoint has no tenant manifest (single-summary stores keep their
// format, and old binaries keep reading their directories), SFCKPT02
// when it does.
func encodeCheckpoint(c checkpoint) []byte {
	size := len(ckptMagic) + 4 + len(c.algo) + 8 + 8 + 4 + 4 + 4
	for _, b := range c.blobs {
		size += 4 + len(b)
	}
	for _, t := range c.tenants {
		size += 2 + len(t.NS) + 4 + 8 + 4 + len(t.Blob)
	}
	le := binary.LittleEndian
	out := make([]byte, 0, size)
	if c.tenants != nil {
		out = append(out, ckptMagic2...)
	} else {
		out = append(out, ckptMagic...)
	}
	out = le.AppendUint32(out, uint32(len(c.algo)))
	out = append(out, c.algo...)
	out = le.AppendUint64(out, uint64(c.n))
	out = le.AppendUint64(out, c.walSeq)
	out = le.AppendUint32(out, uint32(len(c.blobs)))
	for _, b := range c.blobs {
		out = le.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	if c.tenants != nil {
		out = le.AppendUint32(out, uint32(len(c.tenants)))
		for _, t := range c.tenants {
			out = le.AppendUint16(out, uint16(len(t.NS)))
			out = append(out, t.NS...)
			out = le.AppendUint32(out, uint32(t.K))
			out = le.AppendUint64(out, uint64(t.N))
			out = le.AppendUint32(out, uint32(len(t.Blob)))
			out = append(out, t.Blob...)
		}
	}
	return le.AppendUint32(out, crc32.Checksum(out[len(ckptMagic):], crcTable))
}

// decodeCheckpoint parses and verifies checkpoint bytes, accepting both
// formats.
func decodeCheckpoint(data []byte) (checkpoint, error) {
	var c checkpoint
	magic := string(data[:min(len(data), len(ckptMagic))])
	if len(data) < len(ckptMagic)+4 || magic != ckptMagic && magic != ckptMagic2 {
		return c, fmt.Errorf("persist: not a checkpoint file")
	}
	tenanted := magic == ckptMagic2
	body, trailer := data[len(ckptMagic):len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(trailer) {
		return c, fmt.Errorf("persist: checkpoint CRC mismatch (corrupt file)")
	}
	r := wire.NewReader(body)
	algoLen := r.U32()
	if r.Err() == nil && algoLen > 256 {
		return c, fmt.Errorf("persist: implausible checkpoint algo length %d", algoLen)
	}
	c.algo = string(r.Bytes(uint64(algoLen)))
	n, walSeq, shards := r.U64(), r.U64(), r.U32()
	if err := r.Err(); err != nil {
		return c, fmt.Errorf("persist: checkpoint header: %w", err)
	}
	c.n, c.walSeq = int64(n), walSeq
	if (shards == 0 && !tenanted) || shards > maxCkptShards {
		return c, fmt.Errorf("persist: implausible checkpoint shard count %d", shards)
	}
	for i := uint32(0); i < shards; i++ {
		blobLen := r.U32()
		if blobLen > maxCkptBlob {
			return c, fmt.Errorf("persist: implausible checkpoint blob length %d (shard %d)", blobLen, i)
		}
		blob := r.Bytes(uint64(blobLen))
		if err := r.Err(); err != nil {
			return c, fmt.Errorf("persist: checkpoint shard %d: %w", i, err)
		}
		c.blobs = append(c.blobs, blob)
	}
	if tenanted {
		tenants := r.U32()
		if tenants > maxCkptTenants {
			return c, fmt.Errorf("persist: implausible checkpoint tenant count %d", tenants)
		}
		// Non-nil even when empty: an empty table's manifest is still a
		// manifest, which recovery and re-encoding tell by nil-ness.
		c.tenants = []TenantState{}
		for i := uint32(0); i < tenants; i++ {
			nsLen := r.U16()
			if nsLen > MaxNamespaceLen {
				return c, fmt.Errorf("persist: implausible checkpoint namespace length %d (tenant %d)", nsLen, i)
			}
			ns := string(r.Bytes(uint64(nsLen)))
			k, n, blobLen := r.U32(), r.U64(), r.U32()
			if err := r.Err(); err != nil {
				return c, fmt.Errorf("persist: checkpoint tenant %d: %w", i, err)
			}
			if k == 0 || int64(n) < 0 || blobLen > maxCkptBlob {
				return c, fmt.Errorf("persist: implausible checkpoint tenant entry (ns=%q k=%d blob=%d)", ns, k, blobLen)
			}
			blob := r.Bytes(uint64(blobLen))
			if err := r.Err(); err != nil {
				return c, fmt.Errorf("persist: checkpoint tenant %q: %w", ns, err)
			}
			c.tenants = append(c.tenants, TenantState{NS: ns, K: int(k), N: int64(n), Blob: blob})
		}
	}
	if err := r.Done(); err != nil {
		return c, fmt.Errorf("persist: checkpoint: %w", err)
	}
	return c, nil
}

// Checkpoint writes a durable snapshot of target's current state and
// truncates the WAL to the segments past it:
//
//  1. under the target's snapshot barrier, clone every shard and rotate
//     the log — the clone and the new segment describe the same instant;
//  2. off the hot path, Encode the clones and atomically rename the
//     checkpoint file into place, and drop the log bytes before the cut
//     from the tail;
//  3. delete the segments the checkpoint covers.
//
// Ingest is blocked only for step 1 (a deep copy of the counters, the
// same cost as a serving-snapshot refresh). On any failure before the
// rename the previous checkpoint remains authoritative, the log is
// still continuous — a rotation without a checkpoint just leaves one
// more segment to replay — and the tail is as it was. The checkpoint
// loop (AutoCheckpoint), POST /checkpoint and freqd's shutdown all call
// it.
func (st *Store) Checkpoint(target Target) (Stats, error) {
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()

	st.mu.Lock()
	if err := st.failed; err != nil {
		st.mu.Unlock()
		return Stats{}, fmt.Errorf("persist: store failed: %w", err)
	}
	if !st.recovered || st.closed {
		st.mu.Unlock()
		return Stats{}, fmt.Errorf("persist: checkpoint before Recover or after Close")
	}
	st.mu.Unlock()

	var (
		cutN    int64
		cutTail int64 // the tail bytes the cut puts behind the checkpoint
		newSeq  uint64
		cutErr  error
	)
	cut := func(n int64) {
		// The barrier quiesces appends, so the staged tail is complete:
		// drain it to the old segment, seal, and rotate — the new segment
		// begins exactly at the clone's stream position.
		st.mu.Lock()
		if n != st.walN {
			// Updates reached the summary without passing through the log
			// (PersistTo not wired, or wired late). A checkpoint would
			// paper over the hole, so refuse and latch.
			cutErr = fmt.Errorf("persist: summary is at n=%d but the log ends at n=%d — updates bypassed the WAL", n, st.walN)
			st.fail(cutErr)
			st.mu.Unlock()
			return
		}
		chunk := st.pending
		cutTail = st.stats.TailBytes
		st.pending = st.takeSpareLocked()
		st.ioMu.Lock()
		st.mu.Unlock()
		cutErr = st.writeChunkLocked(chunk, n)
		if cutErr == nil {
			cutErr = st.rotateLocked(n)
		}
		if cutErr == nil {
			cutN = n
			newSeq = st.seg.seq
		}
		st.ioMu.Unlock()

		st.mu.Lock()
		st.recycleLocked(chunk)
		if cutErr != nil {
			st.fail(cutErr)
		}
		st.mu.Unlock()
	}

	ck := checkpoint{algo: st.opts.Algo}
	if tt, ok := target.(TenantTarget); ok {
		// Multi-tenant manifest: every namespace, resident or evicted,
		// named and tagged with its counter budget. Entries arriving
		// with Blob already set (evicted tenants) are written as-is —
		// encode→decode→encode is byte-identical, so re-encoding would
		// only cost time.
		tenants := tt.TenantSnapshotBarrier(cut)
		if cutErr != nil {
			return Stats{}, cutErr
		}
		for i := range tenants {
			if tenants[i].Blob != nil {
				continue
			}
			blob, err := core.EncodeSummary(tenants[i].Summary)
			if err != nil {
				return Stats{}, fmt.Errorf("persist: encoding tenant %q: %w", tenants[i].NS, err)
			}
			tenants[i].Blob = blob
			tenants[i].Summary = nil
		}
		ck.tenants = tenants
		if len(tenants) == 0 {
			// An empty table still needs a valid file; SFCKPT02 allows
			// zero shards and zero tenants.
			ck.tenants = []TenantState{}
		}
	} else {
		clones := target.SnapshotBarrier(cut)
		if cutErr != nil {
			return Stats{}, cutErr
		}
		blobs := make([][]byte, len(clones))
		for i, c := range clones {
			blob, err := core.EncodeSummary(c)
			if err != nil {
				return Stats{}, fmt.Errorf("persist: encoding shard %d: %w", i, err)
			}
			blobs[i] = blob
		}
		ck.blobs = blobs
	}
	ck.n, ck.walSeq = cutN, newSeq
	data := encodeCheckpoint(ck)
	if err := writeFileAtomic(st.opts.Dir, ckptName, data); err != nil {
		return Stats{}, fmt.Errorf("persist: writing checkpoint: %w", err)
	}
	st.pruneSegments(newSeq)

	st.mu.Lock()
	st.stats.TailBytes -= cutTail
	st.stats.Checkpoints++
	st.stats.LastCkptN = cutN
	st.stats.LastCkptBytes = int64(len(data))
	st.lastCkptTime = time.Now()
	st.mu.Unlock()
	return st.Stats(), nil
}

// The volume trigger: a checkpoint is due once the tail reaches
// max(ckptFloorBytes, ckptStateFactor × the target's Bytes()). The
// floor keeps a small summary (an SSH shard's blob is about 24 KB) from
// checkpointing every few hundred kilobytes of log; the factor bounds a
// restart's replay at about eight times the state in memory, and keeps
// each checkpoint's write at about an eighth of the log it retires or
// less. The loop polls at ckptPoll.
const (
	ckptFloorBytes  = 4 << 20
	ckptStateFactor = 8
	ckptPoll        = 100 * time.Millisecond
)

// AutoCheckpoint starts the store's checkpoint loop over target; call
// it once at setup, after Recover and PersistTo. Close stops it. Every
// ckptPoll the loop checkpoints when checkpointDue says so: by volume,
// or once every has passed since the last checkpoint (or since the loop
// started) with a non-empty tail. every <= 0 starts no loop, leaving
// checkpoints to explicit Checkpoint calls. A failed checkpoint is
// logged and not retried for every, so a persistent failure neither
// floods the log nor rotates a segment per poll; a latched store is
// skipped silently, since Err already reports it.
func (st *Store) AutoCheckpoint(target Target, every time.Duration, log *slog.Logger) error {
	if every <= 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case !st.recovered || st.closed:
		return fmt.Errorf("persist: checkpoint loop before Recover or after Close")
	case st.loopStop != nil:
		return fmt.Errorf("persist: checkpoint loop already running")
	}
	st.loopStop, st.loopDone = make(chan struct{}), make(chan struct{})
	go st.checkpointLoop(target, every, log, st.loopStop, st.loopDone)
	return nil
}

func (st *Store) checkpointLoop(target Target, every time.Duration, log *slog.Logger, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(ckptPoll)
	defer t.Stop()
	var holdUntil time.Time
	start := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		st.mu.Lock()
		tail, from, failed := st.stats.TailBytes, st.lastCkptTime, st.failed != nil
		st.mu.Unlock()
		if from.Before(start) {
			from = start
		}
		now := time.Now()
		if failed || now.Before(holdUntil) || !checkpointDue(tail, now.Sub(from), every, target.Bytes) {
			continue
		}
		if _, err := st.Checkpoint(target); err != nil {
			log.Error("automatic checkpoint failed", "error", err, "tail_bytes", tail)
			holdUntil = now.Add(every)
		}
	}
}

// checkpointDue is the policy. With tail bytes logged past the last
// checkpoint, which landed since ago, a checkpoint is due once since
// reaches every or the tail reaches max(ckptFloorBytes, ckptStateFactor
// × stateBytes()). An empty tail is never due. stateBytes is read only
// past the floor, so a store with a short tail never takes a plane's
// shard locks for it.
func checkpointDue(tail int64, since, every time.Duration, stateBytes func() int) bool {
	switch {
	case tail <= 0:
		return false
	case since >= every:
		return true
	case tail < ckptFloorBytes:
		return false
	}
	return tail >= ckptStateFactor*int64(stateBytes())
}

// pruneSegments deletes WAL segments before keepSeq; they are covered
// by the checkpoint just renamed into place. Deletion failures are
// logged into no one — the segments are garbage, harmless to leave, and
// the next checkpoint retries — but the segment count stays honest.
func (st *Store) pruneSegments(keepSeq uint64) {
	seqs, err := st.listSegments()
	if err != nil {
		return
	}
	removed := 0
	for _, seq := range seqs {
		if seq < keepSeq {
			if os.Remove(st.segPath(seq)) == nil {
				removed++
			}
		}
	}
	if removed > 0 {
		_ = syncDir(st.opts.Dir)
		st.segCount.Add(int32(-removed))
	}
}

// writeFileAtomic writes name under dir via a temporary file, fsync,
// rename, and directory fsync. The file gets the WAL segments' mode,
// so whoever can read the log can read the state it builds on. The
// temporary's name is fixed: Checkpoint holds ckptMu, and Open sweeps
// a leftover one.
func writeFileAtomic(dir, name string, data []byte) error {
	tmpName := filepath.Join(dir, name+".tmp")
	tmp, err := os.OpenFile(tmpName, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return werr
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}
