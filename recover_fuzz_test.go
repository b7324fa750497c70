package streamfreq

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/persist"
	"streamfreq/internal/tenant"
	"streamfreq/internal/wire"
)

// recoverTarget reads the header of checkpoint file bytes and builds
// the target the checkpoint calls for: a tenant table for SFCKPT02, a
// two-shard plane for a manifest of more than one shard, otherwise a
// one-shard plane of the named algorithm. It also returns the
// checkpoint's algorithm label and its first WAL segment. No checkpoint
// (nil ckpt) means a one-shard SSH plane replaying segment 1.
func recoverTarget(ckpt []byte) (algo string, walSeq uint64, mk func() persist.Target) {
	algo, walSeq = "SSH", 1
	r := wire.NewReader(ckpt)
	magic := string(r.Bytes(8))
	if label := string(r.Bytes(uint64(r.U32()))); r.Err() == nil {
		algo = label
	}
	r.U64() // n
	if seq := r.U64(); r.Err() == nil && seq > 0 && seq < 1<<20 {
		walSeq = seq
	}
	shards := r.U32()
	if _, err := New(algo, 0.1, 7); err != nil {
		algo = "SSH"
	}
	switch {
	case magic == "SFCKPT02":
		return algo, walSeq, func() persist.Target {
			tb, err := tenant.NewTable(tenant.Options{DefaultPhi: 0.1, MaxResident: 2})
			if err != nil {
				panic(err)
			}
			return tb
		}
	case shards > 1:
		return algo, walSeq, func() persist.Target {
			return NewPipelined(2, func() Summary { return MustNew(algo, 0.1, 7) })
		}
	}
	return algo, walSeq, func() persist.Target { return core.NewConcurrent(MustNew(algo, 0.1, 7)) }
}

// recoverOnce opens a store over dir and recovers a fresh target into
// it, closing both; recovered reports whether Recover succeeded.
func recoverOnce(t *testing.T, dir, algo string, mk func() persist.Target) (stats persist.RecoveryStats, recovered bool) {
	st, err := persist.Open(persist.Options{Dir: dir, Algo: algo, Decode: Decode})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	target := mk()
	if p, ok := target.(*core.Pipelined); ok {
		defer p.Close()
	}
	stats, err = st.Recover(target)
	return stats, err == nil
}

// addStoreSeed writes a data directory with a real Store — a
// checkpoint partway through a small Zipf ingest, then more records in
// the checkpoint's segment — and adds its checkpoint file and that
// segment to the corpus, returning both.
func addStoreSeed(f *testing.F, algo string, target persist.Target, ingest func(i int, items []Item)) (ckpt, seg []byte) {
	dir := f.TempDir()
	st, err := persist.Open(persist.Options{Dir: dir, Algo: algo, Fsync: persist.FsyncAlways, Decode: Decode})
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(target); err != nil {
		f.Fatal(err)
	}
	target.PersistTo(st)
	batches := crashStream(f)[:8]
	for i, b := range batches[:5] {
		ingest(i, b[:min(len(b), 40)])
	}
	if _, err := st.Checkpoint(target); err != nil {
		f.Fatal(err)
	}
	for i, b := range batches[5:] {
		ingest(i, b[:min(len(b), 40)])
	}
	if err := st.Err(); err != nil {
		f.Fatal(err)
	}
	ckpt, err = os.ReadFile(filepath.Join(dir, "checkpoint.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	_, walSeq, _ := recoverTarget(ckpt)
	seg, err = os.ReadFile(filepath.Join(dir, fmt.Sprintf("wal-%010d.seg", walSeq)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt, seg)
	return ckpt, seg
}

// tenantRecord frames one WAL tenant record by hand: u32 payload
// length, u32 CRC-32C, then kind 2, u16 namespace length, the
// namespace, u32 budget k and the items.
func tenantRecord(ns string, k uint32, items ...Item) []byte {
	le := binary.LittleEndian
	payload := le.AppendUint32(append(le.AppendUint16([]byte{2}, uint16(len(ns))), ns...), k)
	for _, x := range items {
		payload = le.AppendUint64(payload, uint64(x))
	}
	frame := le.AppendUint32(le.AppendUint32(nil, uint32(len(payload))), crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(frame, payload...)
}

// FuzzRecover fuzzes a whole recovery. The input is split into a
// checkpoint file, whose CRC is recomputed so mutations reach the
// manifest and the blobs, and one WAL segment, named for the segment
// the checkpoint expects. Recovery runs with Decode into the target the
// checkpoint calls for and must never panic, and a directory that
// recovered once must recover again to the same n with nothing
// truncated.
func FuzzRecover(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	ssh := core.NewConcurrent(MustNew("SSH", 0.1, 7))
	addStoreSeed(f, "SSH", ssh, func(_ int, items []Item) { ssh.UpdateBatch(items) })
	cmh := core.NewConcurrent(MustNew("CMH", 0.1, 7))
	addStoreSeed(f, "CMH", cmh, func(_ int, items []Item) { cmh.UpdateBatch(items) })
	sharded := NewPipelined(2, func() Summary { return MustNew("SSH", 0.1, 7) })
	addStoreSeed(f, "SSH", sharded, func(_ int, items []Item) { sharded.UpdateBatch(items) })
	sharded.Close()
	tb, err := tenant.NewTable(tenant.Options{DefaultPhi: 0.1, MaxResident: 2})
	if err != nil {
		f.Fatal(err)
	}
	ckpt, seg := addStoreSeed(f, "SSH", tb, func(i int, items []Item) {
		if _, _, err := tb.IngestBatch([]string{"", "eu", "us"}[i%3], items); err != nil {
			f.Fatal(err)
		}
	})
	// A CRC-valid tenant record claiming one counter past
	// counters.MaxBudget: replay refuses it rather than carving a store
	// for it, at the tail and in front of a valid record alike.
	forged := append(bytes.Clone(seg), tenantRecord("ap", counters.MaxBudget+1, 1)...)
	f.Add(ckpt, forged)
	f.Add(ckpt, append(forged, tenantRecord("ap", 11, 2)...))

	f.Fuzz(func(t *testing.T, ckpt, seg []byte) {
		dir := t.TempDir()
		algo, walSeq, mk := recoverTarget(ckpt)
		if len(ckpt) >= 12 {
			ckpt = append([]byte(nil), ckpt...)
			body := ckpt[8 : len(ckpt)-4]
			binary.LittleEndian.PutUint32(ckpt[len(ckpt)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		}
		if len(ckpt) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "checkpoint.ckpt"), ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%010d.seg", walSeq)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		first, ok := recoverOnce(t, dir, algo, mk)
		if !ok {
			return
		}
		second, ok := recoverOnce(t, dir, algo, mk)
		if !ok {
			t.Fatalf("second recovery failed after a successful first (%+v)", first)
		}
		if second.RecoveredN != first.RecoveredN || second.TruncatedSegments != 0 {
			t.Fatalf("unstable recovery: first %+v, second %+v", first, second)
		}
	})
}
