package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/obs"
	"streamfreq/internal/sketches"
	"streamfreq/internal/zipf"
)

// testDecode is the registry dispatch the tests inject: enough formats
// to recover everything the tests checkpoint.
func testDecode(b []byte) (core.Summary, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("short blob")
	}
	switch string(b[:4]) {
	case "SS02", "SS01":
		return counters.DecodeSpaceSavingHeap(b)
	case "SL02", "SL01":
		return counters.DecodeSpaceSavingList(b)
	case "CM01":
		return sketches.DecodeCountMin(b)
	}
	return nil, fmt.Errorf("unknown magic %q", b[:4])
}

func testStream(t testing.TB, n int) []core.Item {
	t.Helper()
	g, err := zipf.NewGenerator(1<<12, 1.1, 0xD15C, true)
	if err != nil {
		t.Fatal(err)
	}
	return g.Stream(n)
}

// batchesOf splits items into uneven batches like a live ingest mix.
func batchesOf(items []core.Item) [][]core.Item {
	sizes := []int{512, 3, 1024, 97, 4096}
	var out [][]core.Item
	for i := 0; len(items) > 0; i++ {
		n := sizes[i%len(sizes)]
		if n > len(items) {
			n = len(items)
		}
		out = append(out, items[:n])
		items = items[n:]
	}
	return out
}

func openStore(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	if opts.Decode == nil {
		opts.Decode = testDecode
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newSSH(k int) *core.Concurrent { return core.NewConcurrent(counters.NewSpaceSavingHeap(k)) }

func encodeState(t testing.TB, target Target) []byte {
	t.Helper()
	clones := target.SnapshotBarrier(nil)
	var buf bytes.Buffer
	for _, c := range clones {
		blob, err := c.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(blob)
	}
	return buf.Bytes()
}

// recoverFresh opens a store over dir and recovers target, failing the
// test on error.
func recoverFresh(t testing.TB, dir string, opts Options, target Target) (*Store, RecoveryStats) {
	t.Helper()
	st := openStore(t, dir, opts)
	stats, err := st.Recover(target)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return st, stats
}

// TestWALRoundTrip: append-only run (no checkpoint), dirty "crash"
// (no Close, but fsync=always so everything reached disk), recover:
// the recovered state is bit-identical to the original and the stats
// account for every record.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Algo: "SSH", Fsync: FsyncAlways}

	orig := newSSH(101)
	st, _ := recoverFresh(t, dir, opts, orig)
	orig.PersistTo(st)
	batches := batchesOf(testStream(t, 10_000))
	for _, b := range batches {
		orig.UpdateBatch(b)
	}
	orig.Update(42, 7) // weighted scalar path
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no Checkpoint.

	rec := newSSH(101)
	st2, stats := recoverFresh(t, dir, opts, rec)
	defer st2.Close()
	if stats.ReplayedRecords != len(batches)+1 {
		t.Fatalf("replayed %d records, want %d", stats.ReplayedRecords, len(batches)+1)
	}
	if stats.ReplayedItems != 10_007 || stats.RecoveredN != 10_007 {
		t.Fatalf("replayed %d items, recovered n=%d, want 10007", stats.ReplayedItems, stats.RecoveredN)
	}
	if rec.LiveN() != orig.LiveN() {
		t.Fatalf("recovered N=%d, original %d", rec.LiveN(), orig.LiveN())
	}
	if !bytes.Equal(encodeState(t, rec), encodeState(t, orig)) {
		t.Fatal("recovered state is not bit-identical to the original")
	}
	// The recovery time reaches operators through /v1/metrics.
	reg := obs.NewRegistry()
	st2.Instrument(reg)
	fams, err := obs.ParseExposition(strings.NewReader(reg.Render()))
	if err != nil {
		t.Fatal(err)
	}
	if fam := fams["freq_wal_recovery_seconds"]; stats.Elapsed <= 0 || fam == nil ||
		len(fam.Series) != 1 || fam.Series[0].Value != stats.Elapsed.Seconds() {
		t.Fatalf("recovery took %v; freq_wal_recovery_seconds = %+v", stats.Elapsed, fam)
	}
}

// TestCheckpointCycle: checkpoint mid-stream prunes covered segments;
// recovery = checkpoint + tail replay; a clean shutdown (final
// checkpoint + Close) replays zero records.
func TestCheckpointCycle(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Algo: "SSH", Fsync: FsyncAlways, SegmentMaxBytes: 16 << 10}

	orig := newSSH(101)
	st, _ := recoverFresh(t, dir, opts, orig)
	orig.PersistTo(st)
	batches := batchesOf(testStream(t, 20_000))
	half := len(batches) / 2
	var preN int64
	for _, b := range batches[:half] {
		orig.UpdateBatch(b)
		preN += int64(len(b))
	}
	ckStats, err := st.Checkpoint(orig)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if ckStats.LastCkptN != preN || ckStats.Checkpoints != 1 {
		t.Fatalf("checkpoint stats = %+v, want n=%d", ckStats, preN)
	}
	seqs, _ := st.listSegments()
	if len(seqs) != 1 {
		t.Fatalf("checkpoint left %d segments, want 1 (the fresh active one)", len(seqs))
	}
	for _, b := range batches[half:] {
		orig.UpdateBatch(b)
	}

	// Crash-recover: checkpoint + tail.
	rec := newSSH(101)
	st2, stats := recoverFresh(t, dir, opts, rec)
	if stats.CheckpointN != preN {
		t.Fatalf("CheckpointN = %d, want %d", stats.CheckpointN, preN)
	}
	if stats.ReplayedRecords != len(batches)-half {
		t.Fatalf("replayed %d records, want %d", stats.ReplayedRecords, len(batches)-half)
	}
	if !bytes.Equal(encodeState(t, rec), encodeState(t, orig)) {
		t.Fatal("recovered state differs from original")
	}

	// Clean shutdown: final checkpoint, close, recover replays nothing.
	if _, err := st2.Checkpoint(rec); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec2 := newSSH(101)
	st3, stats3 := recoverFresh(t, dir, opts, rec2)
	defer st3.Close()
	if stats3.ReplayedRecords != 0 || stats3.TruncatedBytes != 0 {
		t.Fatalf("clean restart replayed %d records, truncated %d bytes; want 0/0", stats3.ReplayedRecords, stats3.TruncatedBytes)
	}
	if !bytes.Equal(encodeState(t, rec2), encodeState(t, rec)) {
		t.Fatal("clean-restart state differs")
	}
}

// TestTornTailTruncated: cutting the last segment at an arbitrary byte
// offset loses only the records past the cut; recovery truncates the
// tear, recovers the longest durable prefix, and a second recovery of
// the same directory replays the identical prefix with nothing left to
// truncate.
func TestTornTailTruncated(t *testing.T) {
	for _, cutBack := range []int64{1, 7, 9, 64, 1000} {
		t.Run(fmt.Sprintf("cut-%d", cutBack), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Algo: "SSH", Fsync: FsyncAlways}
			orig := newSSH(101)
			st, _ := recoverFresh(t, dir, opts, orig)
			orig.PersistTo(st)
			for _, b := range batchesOf(testStream(t, 8_000)) {
				orig.UpdateBatch(b)
			}
			seqs, _ := st.listSegments()
			path := st.segPath(seqs[len(seqs)-1])
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-cutBack); err != nil {
				t.Fatal(err)
			}

			rec := newSSH(101)
			_, stats := recoverFresh(t, dir, opts, rec)
			if stats.TruncatedSegments != 1 {
				t.Fatalf("stats = %+v, want one truncated segment", stats)
			}
			if rec.LiveN() >= orig.LiveN() || rec.LiveN() != stats.RecoveredN {
				t.Fatalf("recovered n=%d (stats %d), original %d — tear must cost at least the cut record",
					rec.LiveN(), stats.RecoveredN, orig.LiveN())
			}
			rec2 := newSSH(101)
			_, stats2 := recoverFresh(t, dir, opts, rec2)
			if stats2.TruncatedSegments != 0 || stats2.RecoveredN != stats.RecoveredN {
				t.Fatalf("second recovery = %+v, want clean replay to n=%d", stats2, stats.RecoveredN)
			}
			if !bytes.Equal(encodeState(t, rec2), encodeState(t, rec)) {
				t.Fatal("second recovery produced different state")
			}
		})
	}
}

// TestTornCheckpointSegmentRecoversTwice: a checkpoint's own segment
// torn inside its header holds nothing to replay and is removed. The
// fresh segment recovery opens must take its place, or the next
// recovery finds the checkpoint's segment missing.
func TestTornCheckpointSegmentRecoversTwice(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Algo: "SSH", Fsync: FsyncAlways}
	orig := newSSH(101)
	st, _ := recoverFresh(t, dir, opts, orig)
	orig.PersistTo(st)
	for _, b := range batchesOf(testStream(t, 2_000)) {
		orig.UpdateBatch(b)
	}
	if _, err := st.Checkpoint(orig); err != nil {
		t.Fatal(err)
	}
	st.Close()
	seqs, _ := st.listSegments()
	if err := os.Truncate(st.segPath(seqs[len(seqs)-1]), segHeaderSize-5); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		st, stats := recoverFresh(t, dir, opts, newSSH(101))
		st.Close()
		if stats.RecoveredN != orig.LiveN() {
			t.Fatalf("recovery %d reached n=%d, want %d", i, stats.RecoveredN, orig.LiveN())
		}
	}
}

// TestMidChainCorruptionFails: damage in a non-last segment is not a
// tear and must fail recovery loudly.
func TestMidChainCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Algo: "SSH", Fsync: FsyncAlways, SegmentMaxBytes: 8 << 10}
	orig := newSSH(101)
	st, _ := recoverFresh(t, dir, opts, orig)
	orig.PersistTo(st)
	for _, b := range batchesOf(testStream(t, 30_000)) {
		orig.UpdateBatch(b)
	}
	seqs, _ := st.listSegments()
	if len(seqs) < 3 {
		t.Fatalf("want ≥3 segments for a mid-chain wound, got %d", len(seqs))
	}
	path := st.segPath(seqs[1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, opts)
	if _, err := st2.Recover(newSSH(101)); err == nil {
		t.Fatal("recovery over mid-chain corruption must fail")
	}
}

// TestWeightedAndTurnstile: scalar weighted updates — including
// negative turnstile counts into a sketch — replay exactly.
func TestWeightedAndTurnstile(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Algo: "CM", Fsync: FsyncAlways}
	orig := core.NewConcurrent(sketches.NewCountMin(4, 256, 9))
	st, _ := recoverFresh(t, dir, opts, orig)
	orig.PersistTo(st)
	orig.Update(5, 100)
	orig.Update(9, 40)
	orig.Update(5, -30)
	orig.UpdateBatch([]core.Item{5, 5, 9})

	rec := core.NewConcurrent(sketches.NewCountMin(4, 256, 9))
	st2, stats := recoverFresh(t, dir, opts, rec)
	defer st2.Close()
	if stats.RecoveredN != 113 {
		t.Fatalf("recovered n=%d, want 113", stats.RecoveredN)
	}
	if got, want := rec.Estimate(5), orig.Estimate(5); got != want {
		t.Fatalf("Estimate(5) = %d, want %d", got, want)
	}
	if !bytes.Equal(encodeState(t, rec), encodeState(t, orig)) {
		t.Fatal("recovered sketch differs")
	}
}

// TestShardedCheckpointRestore: per-shard blobs of a sharded plane
// restore into the same shard layout; a different shard count is
// refused.
func TestShardedCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Algo: "SSH", Fsync: FsyncAlways}
	mk := func() core.Summary { return counters.NewSpaceSavingHeap(101) }
	orig := core.NewPipelined(4, mk)
	defer orig.Close()
	st, _ := recoverFresh(t, dir, opts, orig)
	orig.PersistTo(st)
	for _, b := range batchesOf(testStream(t, 12_000)) {
		orig.UpdateBatch(b)
	}
	if _, err := st.Checkpoint(orig); err != nil {
		t.Fatal(err)
	}
	orig.UpdateBatch([]core.Item{1, 2, 3, 4, 5, 6, 7, 8})

	rec := core.NewPipelined(4, mk)
	defer rec.Close()
	st2, stats := recoverFresh(t, dir, opts, rec)
	st2.Close()
	if stats.CheckpointShards != 4 {
		t.Fatalf("CheckpointShards = %d, want 4", stats.CheckpointShards)
	}
	if !bytes.Equal(encodeState(t, rec), encodeState(t, orig)) {
		t.Fatal("recovered sharded state differs")
	}

	st3 := openStore(t, dir, opts)
	two := core.NewPipelined(2, mk)
	defer two.Close()
	if _, err := st3.Recover(two); err == nil {
		t.Fatal("restoring a 4-shard checkpoint into 2 shards must fail")
	}
}

// TestAlgoMismatchRefused: a checkpoint taken for one algorithm refuses
// to load into a store configured for another.
func TestAlgoMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	orig := newSSH(51)
	st, _ := recoverFresh(t, dir, Options{Algo: "SSH", Fsync: FsyncAlways}, orig)
	orig.PersistTo(st)
	orig.UpdateBatch([]core.Item{1, 2, 3})
	if _, err := st.Checkpoint(orig); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, Options{Algo: "CM"})
	if _, err := st2.Recover(core.NewConcurrent(sketches.NewCountMin(4, 256, 9))); err == nil {
		t.Fatal("algo mismatch must fail recovery")
	}
}

// TestAppendBeforeRecoverLatches: wiring PersistTo without Recover is a
// bug the store latches as a failure instead of logging into the void.
func TestAppendBeforeRecoverLatches(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{Algo: "SSH"})
	st.AppendBatch([]core.Item{1})
	if st.Err() == nil {
		t.Fatal("append before Recover must latch a failure")
	}
}

// TestFsyncPolicies: the interval and never policies still produce a
// fully recoverable log across a clean Close, and the interval flusher
// advances durability on its own.
func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Algo: "SSH", Fsync: policy, FsyncInterval: 5 * time.Millisecond}
			orig := newSSH(101)
			st, _ := recoverFresh(t, dir, opts, orig)
			orig.PersistTo(st)
			for _, b := range batchesOf(testStream(t, 6_000)) {
				orig.UpdateBatch(b)
			}
			if policy == FsyncInterval {
				deadline := time.Now().Add(2 * time.Second)
				for {
					if st.Stats().DurableN == orig.LiveN() {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("flusher never made the log durable (durable=%d, n=%d)", st.Stats().DurableN, orig.LiveN())
					}
					time.Sleep(time.Millisecond)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			rec := newSSH(101)
			st2, _ := recoverFresh(t, dir, opts, rec)
			st2.Close()
			if !bytes.Equal(encodeState(t, rec), encodeState(t, orig)) {
				t.Fatal("recovered state differs after clean close")
			}
		})
	}
}

// TestCheckpointWithoutWALWiringRefused: a checkpoint over a target
// whose updates bypassed the log would hide a durability hole; the
// store detects the position mismatch and latches.
func TestCheckpointWithoutWALWiringRefused(t *testing.T) {
	dir := t.TempDir()
	orig := newSSH(51)
	st, _ := recoverFresh(t, dir, Options{Algo: "SSH"}, orig)
	// PersistTo deliberately not called.
	orig.UpdateBatch([]core.Item{1, 2, 3})
	if _, err := st.Checkpoint(orig); err == nil {
		t.Fatal("checkpoint with bypassed WAL must fail")
	}
	if st.Err() == nil {
		t.Fatal("the mismatch must latch the store")
	}
}

// TestMissingCheckpointSegmentFails: the checkpoint's cut segment is
// guaranteed on disk; losing it means losing the log tail, and recovery
// must say so instead of silently serving the checkpoint alone.
func TestMissingCheckpointSegmentFails(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Algo: "SSH", Fsync: FsyncAlways}
	orig := newSSH(51)
	st, _ := recoverFresh(t, dir, opts, orig)
	orig.PersistTo(st)
	orig.UpdateBatch([]core.Item{1, 2, 3})
	if _, err := st.Checkpoint(orig); err != nil {
		t.Fatal(err)
	}
	orig.UpdateBatch([]core.Item{4, 5})
	seqs, _ := st.listSegments()
	if err := os.Remove(st.segPath(seqs[len(seqs)-1])); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, opts)
	if _, err := st2.Recover(newSSH(51)); err == nil {
		t.Fatal("recovery with the checkpoint's WAL segment missing must fail")
	}
}

// TestOversizedBatchSplits: a batch past the per-record cap is logged
// as several records — never as one record replay would reject — and
// the full item count survives. The bit-level assertion uses a linear
// sketch, which is insensitive to the (documented) batch-boundary
// shift the split introduces for counter summaries' internals.
func TestOversizedBatchSplits(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Algo: "CM", Fsync: FsyncAlways}
	mk := func() *core.Concurrent { return core.NewConcurrent(sketches.NewCountMin(4, 256, 9)) }
	orig := mk()
	st, _ := recoverFresh(t, dir, opts, orig)
	orig.PersistTo(st)
	big := make([]core.Item, maxBatchItemsPerRecord+3)
	for i := range big {
		big[i] = core.Item(i % 97)
	}
	orig.UpdateBatch(big)
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	rec := mk()
	st2, stats := recoverFresh(t, dir, opts, rec)
	defer st2.Close()
	if stats.ReplayedRecords != 2 || stats.ReplayedItems != int64(len(big)) {
		t.Fatalf("stats = %+v, want 2 records covering %d items", stats, len(big))
	}
	if !bytes.Equal(encodeState(t, rec), encodeState(t, orig)) {
		t.Fatal("recovered sketch differs after oversized-batch split")
	}
}

// TestLeftoverTmpSwept: interrupted checkpoint temporaries are removed
// at Open.
func TestLeftoverTmpSwept(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, ckptName+".123.tmp")
	if err := os.WriteFile(tmp, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	openStore(t, dir, Options{Algo: "SSH"})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("tmp file survived Open")
	}
}

// TestCheckpointModeMatchesSegments: the checkpoint has the WAL
// segments' permission bits, so a reader that can replay the log can
// also read the state it starts from.
func TestCheckpointModeMatchesSegments(t *testing.T) {
	dir := t.TempDir()
	s := newSSH(101)
	st, _ := recoverFresh(t, dir, Options{Algo: "SSH", Fsync: FsyncAlways}, s)
	defer st.Close()
	s.PersistTo(st)
	s.UpdateBatch(testStream(t, 1000))
	if _, err := st.Checkpoint(s); err != nil {
		t.Fatal(err)
	}
	mode := func(name string) os.FileMode {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment after a checkpoint (%v)", err)
	}
	if ck, seg := mode(ckptName), mode(filepath.Base(segs[0])); ck != seg {
		t.Fatalf("checkpoint mode %v, WAL segment mode %v", ck, seg)
	}
}

// TestRejectedWeightedUpdateNeverLogged: a weighted update the summary
// rejects (Space-Saving refuses a negative count) panics in the caller
// on either plane, never reaches the log, and leaves the node writable
// and restartable: a later batch lands, and a restart recovers the same
// stream position. Replaying such a record, forged, is an error.
func TestRejectedWeightedUpdateNeverLogged(t *testing.T) {
	opts := Options{Algo: "SSH", Fsync: FsyncAlways}
	mk := func() core.Summary { return counters.NewSpaceSavingHeap(101) }
	for _, c := range []struct {
		name  string
		plane func() Target
	}{
		{"one shard", func() Target { return core.NewConcurrent(mk()) }},
		{"two shards", func() Target { return core.NewPipelined(2, mk) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			orig := c.plane()
			if p, ok := orig.(*core.Pipelined); ok {
				defer p.Close()
			}
			st, _ := recoverFresh(t, dir, opts, orig)
			orig.PersistTo(st)
			orig.UpdateBatch([]core.Item{1, 2, 3, 1})
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Update(7, -1) did not panic in the caller")
					}
				}()
				orig.Update(7, -1)
			}()
			orig.UpdateBatch([]core.Item{7, 7, 8})
			orig.Update(9, 5)
			want := int64(12)
			if got := orig.LiveN(); got != want {
				t.Fatalf("LiveN = %d after the rejected update, want %d", got, want)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			rec := c.plane()
			if p, ok := rec.(*core.Pipelined); ok {
				defer p.Close()
			}
			st2, stats := recoverFresh(t, dir, opts, rec)
			defer st2.Close()
			if stats.RecoveredN != want || rec.LiveN() != want {
				t.Fatalf("recovered n=%d (LiveN %d), want %d", stats.RecoveredN, rec.LiveN(), want)
			}
			if !bytes.Equal(encodeState(t, rec), encodeState(t, orig)) {
				t.Fatal("recovered state differs from the original")
			}

			// A forged record of the same rejected update, with a valid
			// batch behind it, fails recovery as an error: the replaying
			// caller applies it, so no drainer goroutine panics.
			forged := t.TempDir()
			seg := appendRecord(segmentBytes(1, 0), recWeighted, "", 0, nil, 7, -1)
			seg = appendRecord(seg, recUnit, "", 0, []core.Item{1}, 0, 0)
			if err := os.WriteFile(filepath.Join(forged, "wal-0000000001.seg"), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			bad := c.plane()
			if p, ok := bad.(*core.Pipelined); ok {
				defer p.Close()
			}
			if _, err := openStore(t, forged, opts).Recover(bad); err == nil || !strings.Contains(err.Error(), "does not replay") {
				t.Fatalf("recovering a forged rejected update: %v, want a replay error", err)
			}
		})
	}
}
