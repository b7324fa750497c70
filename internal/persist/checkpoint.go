package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"streamfreq/internal/core"
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
	tenanted := c.tenants != nil
	out := make([]byte, 0, size)
	if tenanted {
		out = append(out, ckptMagic2...)
	} else {
		out = append(out, ckptMagic...)
	}
	var u16 [2]byte
	var u32 [4]byte
	var u64 [8]byte
	put16 := func(v uint16) {
		binary.LittleEndian.PutUint16(u16[:], v)
		out = append(out, u16[:]...)
	}
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		out = append(out, u32[:]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u64[:], v)
		out = append(out, u64[:]...)
	}
	put32(uint32(len(c.algo)))
	out = append(out, c.algo...)
	put64(uint64(c.n))
	put64(c.walSeq)
	put32(uint32(len(c.blobs)))
	for _, b := range c.blobs {
		put32(uint32(len(b)))
		out = append(out, b...)
	}
	if tenanted {
		put32(uint32(len(c.tenants)))
		for _, t := range c.tenants {
			put16(uint16(len(t.NS)))
			out = append(out, t.NS...)
			put32(uint32(t.K))
			put64(uint64(t.N))
			put32(uint32(len(t.Blob)))
			out = append(out, t.Blob...)
		}
	}
	put32(crc32.Checksum(out[len(ckptMagic):], crcTable))
	return out
}

// decodeCheckpoint parses and verifies checkpoint bytes, accepting both
// formats.
func decodeCheckpoint(data []byte) (checkpoint, error) {
	var c checkpoint
	if len(data) < len(ckptMagic)+4 {
		return c, fmt.Errorf("persist: not a checkpoint file")
	}
	magic := string(data[:len(ckptMagic)])
	if magic != ckptMagic && magic != ckptMagic2 {
		return c, fmt.Errorf("persist: not a checkpoint file")
	}
	tenanted := magic == ckptMagic2
	body, trailer := data[len(ckptMagic):len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(trailer) {
		return c, fmt.Errorf("persist: checkpoint CRC mismatch (corrupt file)")
	}
	pos := 0
	u32 := func() (uint32, error) {
		if pos+4 > len(body) {
			return 0, fmt.Errorf("persist: truncated checkpoint at offset %d", pos)
		}
		v := binary.LittleEndian.Uint32(body[pos:])
		pos += 4
		return v, nil
	}
	u64 := func() (uint64, error) {
		if pos+8 > len(body) {
			return 0, fmt.Errorf("persist: truncated checkpoint at offset %d", pos)
		}
		v := binary.LittleEndian.Uint64(body[pos:])
		pos += 8
		return v, nil
	}
	algoLen, err := u32()
	if err != nil {
		return c, err
	}
	if algoLen > 256 || pos+int(algoLen) > len(body) {
		return c, fmt.Errorf("persist: implausible checkpoint algo length %d", algoLen)
	}
	c.algo = string(body[pos : pos+int(algoLen)])
	pos += int(algoLen)
	n, err := u64()
	if err != nil {
		return c, err
	}
	c.n = int64(n)
	if c.walSeq, err = u64(); err != nil {
		return c, err
	}
	shards, err := u32()
	if err != nil {
		return c, err
	}
	if (shards == 0 && !tenanted) || shards > maxCkptShards {
		return c, fmt.Errorf("persist: implausible checkpoint shard count %d", shards)
	}
	for i := uint32(0); i < shards; i++ {
		blobLen, err := u32()
		if err != nil {
			return c, err
		}
		if blobLen > maxCkptBlob || pos+int(blobLen) > len(body) {
			return c, fmt.Errorf("persist: implausible checkpoint blob length %d (shard %d)", blobLen, i)
		}
		c.blobs = append(c.blobs, body[pos:pos+int(blobLen)])
		pos += int(blobLen)
	}
	if tenanted {
		tenants, err := u32()
		if err != nil {
			return c, err
		}
		if tenants > maxCkptTenants {
			return c, fmt.Errorf("persist: implausible checkpoint tenant count %d", tenants)
		}
		// Non-nil even when empty: an empty table's manifest is still a
		// manifest, which recovery and re-encoding tell by nil-ness.
		c.tenants = []TenantState{}
		for i := uint32(0); i < tenants; i++ {
			if pos+2 > len(body) {
				return c, fmt.Errorf("persist: truncated checkpoint at offset %d", pos)
			}
			nsLen := int(binary.LittleEndian.Uint16(body[pos:]))
			pos += 2
			if nsLen > MaxNamespaceLen || pos+nsLen > len(body) {
				return c, fmt.Errorf("persist: implausible checkpoint namespace length %d (tenant %d)", nsLen, i)
			}
			ns := string(body[pos : pos+nsLen])
			pos += nsLen
			k, err := u32()
			if err != nil {
				return c, err
			}
			n, err := u64()
			if err != nil {
				return c, err
			}
			blobLen, err := u32()
			if err != nil {
				return c, err
			}
			if k == 0 || int64(n) < 0 || blobLen > maxCkptBlob || pos+int(blobLen) > len(body) {
				return c, fmt.Errorf("persist: implausible checkpoint tenant entry (ns=%q k=%d blob=%d)", ns, k, blobLen)
			}
			c.tenants = append(c.tenants, TenantState{NS: ns, K: int(k), N: int64(n), Blob: body[pos : pos+int(blobLen)]})
			pos += int(blobLen)
		}
	}
	if pos != len(body) {
		return c, fmt.Errorf("persist: %d trailing checkpoint bytes", len(body)-pos)
	}
	return c, nil
}

// Checkpoint writes a durable snapshot of target's current state and
// truncates the WAL to the segments past it:
//
//  1. under the target's snapshot barrier, clone every shard and rotate
//     the log — the clone and the new segment describe the same instant;
//  2. off the hot path, Encode the clones and atomically rename the
//     checkpoint file into place;
//  3. delete the segments the checkpoint covers.
//
// Ingest is blocked only for step 1 (a deep copy of the counters, the
// same cost as a serving-snapshot refresh). On any failure before the
// rename the previous checkpoint remains authoritative and the log is
// still continuous — a rotation without a checkpoint just leaves one
// more segment to replay.
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
		cutN   int64
		newSeq uint64
		cutErr error
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
	st.checkpoints++
	st.lastCkptN = cutN
	st.lastCkptBytes = int64(len(data))
	st.lastCkptTime = time.Now()
	st.mu.Unlock()
	return st.Stats(), nil
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
// rename, and directory fsync.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
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
