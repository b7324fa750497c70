package persist

// The walls of the checkpoint policy: the tail the store counts, the
// trigger that reads it, the loop that runs the trigger, and copies of
// a data directory taken while writers and the loop run, each of which
// must recover to a true prefix of the stream.

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/prng"
)

var discard = slog.New(slog.DiscardHandler)

// encodeFails is Space-Saving whose encoding always fails, so a
// checkpoint of it fails after its cut.
type encodeFails struct{ *counters.SpaceSavingHeap }

func (e encodeFails) Snapshot() core.Summary {
	return encodeFails{e.SpaceSavingHeap.Snapshot().(*counters.SpaceSavingHeap)}
}

func (encodeFails) MarshalBinary() ([]byte, error) { return nil, errors.New("encoding refused") }

// ingestBytes feeds target 4096-item batches until the store's tail
// holds at least want bytes.
func ingestBytes(t testing.TB, st *Store, target Target, want int64) {
	t.Helper()
	items := testStream(t, 1<<16)
	for i := 0; st.Stats().TailBytes < want; i++ {
		off := (i * 4096) % len(items)
		target.UpdateBatch(items[off : off+4096])
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// waitCheckpoints waits up to d for the store to have taken at least
// want checkpoints.
func waitCheckpoints(t *testing.T, st *Store, want int64, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for st.Stats().Checkpoints < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d checkpoints after %v, want %d (tail %d B)", st.Stats().Checkpoints, d, want, st.Stats().TailBytes)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoverSeedsCheckpointStats: a restart reports the checkpoint it
// restored, its position, size and age, not "no checkpoint yet"; the
// checkpoint count stays per process.
func TestRecoverSeedsCheckpointStats(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Algo: "SSH", Fsync: FsyncAlways}
	orig := newSSH(51)
	st, _ := recoverFresh(t, dir, opts, orig)
	orig.PersistTo(st)
	orig.UpdateBatch([]core.Item{1, 2, 3, 1})
	ck, err := st.Checkpoint(orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	hourAgo := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, ckptName), hourAgo, hourAgo); err != nil {
		t.Fatal(err)
	}

	st2, _ := recoverFresh(t, dir, opts, newSSH(51))
	defer st2.Close()
	got := st2.Stats()
	if got.LastCkptN != 4 || got.LastCkptBytes != ck.LastCkptBytes || got.Checkpoints != 0 {
		t.Fatalf("after restart: last_n=%d last_bytes=%d count=%d, want 4, %d, 0",
			got.LastCkptN, got.LastCkptBytes, got.Checkpoints, ck.LastCkptBytes)
	}
	if age := time.Duration(got.LastCkptAge); age < time.Hour || age > time.Hour+time.Minute {
		t.Fatalf("after restart the checkpoint's age reads %v, want the file's hour", age)
	}
}

// TestTailAccounting: appends add to the tail, the tail recovered at
// start-up counts, a landed checkpoint subtracts the bytes before its
// cut, and a checkpoint that fails after its cut changes nothing.
func TestTailAccounting(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Algo: "SSH", Fsync: FsyncAlways, SegmentMaxBytes: 16 << 10}
	orig := newSSH(101)
	st, _ := recoverFresh(t, dir, opts, orig)
	orig.PersistTo(st)
	batches := batchesOf(testStream(t, 20_000))
	half := len(batches) / 2
	for _, b := range batches[:half] {
		orig.UpdateBatch(b)
	}
	if s := st.Stats(); s.TailBytes != s.AppendedBytes || s.TailBytes == 0 {
		t.Fatalf("tail %d B after appending %d B", s.TailBytes, s.AppendedBytes)
	}
	if _, err := st.Checkpoint(orig); err != nil {
		t.Fatal(err)
	}
	if tail := st.Stats().TailBytes; tail != 0 {
		t.Fatalf("tail %d B right after a checkpoint, want 0", tail)
	}
	before := st.Stats().AppendedBytes
	for _, b := range batches[half:] {
		orig.UpdateBatch(b)
	}
	after := st.Stats()
	if after.TailBytes != after.AppendedBytes-before {
		t.Fatalf("tail %d B, want the %d B appended since the checkpoint", after.TailBytes, after.AppendedBytes-before)
	}

	// Crash, then recover: the replayed tail is the tail, and appends
	// add to it.
	rec := newSSH(101)
	st2, stats := recoverFresh(t, dir, opts, rec)
	defer st2.Close()
	if stats.ReplayedBytes != after.TailBytes || st2.Stats().TailBytes != after.TailBytes {
		t.Fatalf("recovered tail %d B (replayed %d B), want %d", st2.Stats().TailBytes, stats.ReplayedBytes, after.TailBytes)
	}
	rec.PersistTo(st2)
	rec.UpdateBatch(batches[0])
	if s := st2.Stats(); s.TailBytes != after.TailBytes+s.AppendedBytes {
		t.Fatalf("tail %d B, want the recovered %d B plus the %d B appended", s.TailBytes, after.TailBytes, s.AppendedBytes)
	}

	// A checkpoint that fails after its cut leaves the tail, the
	// checkpoint stats and the log as they were.
	fdir := t.TempDir()
	mk := func() *core.Concurrent { return core.NewConcurrent(encodeFails{counters.NewSpaceSavingHeap(101)}) }
	failing := mk()
	fst, _ := recoverFresh(t, fdir, opts, failing)
	failing.PersistTo(fst)
	for _, b := range batches {
		failing.UpdateBatch(b)
	}
	want := fst.Stats()
	if _, err := fst.Checkpoint(failing); err == nil {
		t.Fatal("checkpointing a summary whose encoding fails succeeded")
	}
	got := fst.Stats()
	if got.TailBytes != want.TailBytes || got.Checkpoints != 0 || got.LastCkptN != 0 || got.Err != "" {
		t.Fatalf("after a failed checkpoint: tail %d B (want %d), count %d, last_n %d, error %q",
			got.TailBytes, want.TailBytes, got.Checkpoints, got.LastCkptN, got.Err)
	}
	if _, err := os.Stat(filepath.Join(fdir, ckptName)); !os.IsNotExist(err) {
		t.Fatalf("a failed checkpoint left a checkpoint file (stat: %v)", err)
	}
	// The restart replays the whole log, across the failed cut.
	_, fstats := recoverFresh(t, fdir, opts, mk())
	if fstats.ReplayedBytes != want.TailBytes || fstats.RecoveredN != failing.LiveN() {
		t.Fatalf("restart replayed %d B to n=%d, want %d B to n=%d", fstats.ReplayedBytes, fstats.RecoveredN, want.TailBytes, failing.LiveN())
	}
}

// TestCheckpointDue: the trigger fires when the tail reaches
// max(4 MiB, 8·Bytes()) and when every passes with a non-empty tail;
// never for an empty tail; and it reads the state's bytes only past the
// floor. (every = 0 starts no loop: TestAutoCheckpoint.)
func TestCheckpointDue(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		name  string
		tail  int64
		since time.Duration
		every time.Duration
		bytes int // -1: must not be read
		want  bool
	}{
		{"idle, long past every", 0, time.Hour, time.Minute, -1, false},
		{"small tail, clock not due", 4*mib - 1, time.Second, time.Minute, -1, false},
		{"small tail, clock due", 1, time.Minute, time.Minute, -1, true},
		{"floor reached, small state", 4 * mib, time.Second, time.Minute, 100 << 10, true},
		{"floor reached, 8·Bytes not", 8*mib - 1, time.Second, time.Minute, mib, false},
		{"8·Bytes reached", 8 * mib, time.Second, time.Minute, mib, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			bytes := func() int {
				if c.bytes < 0 {
					t.Fatal("read the state's bytes below the floor")
				}
				return c.bytes
			}
			if got := checkpointDue(c.tail, c.since, c.every, bytes); got != c.want {
				t.Fatalf("checkpointDue(tail %d, since %v, every %v, bytes %d) = %v, want %v",
					c.tail, c.since, c.every, c.bytes, got, c.want)
			}
		})
	}
}

// TestAutoCheckpoint runs the loop: an idle store takes no checkpoint,
// every = 0 takes none whatever the tail, the clock takes one once a
// tail exists, and volume takes one before the clock is due.
func TestAutoCheckpoint(t *testing.T) {
	opts := Options{Algo: "SSH", Fsync: FsyncInterval}
	start := func(t *testing.T, every time.Duration) (*Store, *core.Concurrent) {
		target := newSSH(101)
		st, _ := recoverFresh(t, t.TempDir(), opts, target)
		t.Cleanup(func() { st.Close() })
		target.PersistTo(st)
		if err := st.AutoCheckpoint(target, every, discard); err != nil {
			t.Fatal(err)
		}
		return st, target
	}
	t.Run("idle", func(t *testing.T) {
		st, _ := start(t, 20*time.Millisecond)
		time.Sleep(5 * ckptPoll)
		if n := st.Stats().Checkpoints; n != 0 {
			t.Fatalf("an idle store took %d checkpoints", n)
		}
	})
	t.Run("every 0", func(t *testing.T) {
		st, target := start(t, 0)
		ingestBytes(t, st, target, ckptFloorBytes+1)
		time.Sleep(5 * ckptPoll)
		if n := st.Stats().Checkpoints; n != 0 {
			t.Fatalf("every = 0 took %d checkpoints", n)
		}
	})
	t.Run("clock", func(t *testing.T) {
		st, target := start(t, 50*time.Millisecond)
		target.UpdateBatch([]core.Item{1, 2, 3})
		waitCheckpoints(t, st, 1, 5*time.Second)
		if s := st.Stats(); s.LastCkptN != 3 || s.TailBytes != 0 {
			t.Fatalf("clock checkpoint at n=%d leaving %d B of tail, want n=3 and none", s.LastCkptN, s.TailBytes)
		}
	})
	t.Run("volume", func(t *testing.T) {
		st, target := start(t, time.Hour)
		ingestBytes(t, st, target, ckptFloorBytes)
		waitCheckpoints(t, st, 1, 5*time.Second)
		if s := st.Stats(); s.TailBytes >= ckptFloorBytes {
			t.Fatalf("volume checkpoint left %d B of tail", s.TailBytes)
		}
	})
	t.Run("once", func(t *testing.T) {
		st, target := start(t, time.Hour)
		if err := st.AutoCheckpoint(target, time.Hour, discard); err == nil {
			t.Fatal("a second loop started")
		}
		st.Close()
		if err := st.AutoCheckpoint(target, time.Hour, discard); err == nil {
			t.Fatal("a loop started after Close")
		}
	})
}

// orderLog records every batch in log order before the store logs it:
// both planes append under their ingest lock or WAL ticket, so the
// record is the stream a recovered prefix must match.
type orderLog struct {
	*Store
	mu      sync.Mutex
	batches [][]core.Item
}

func (o *orderLog) AppendBatch(items []core.Item) {
	o.mu.Lock()
	o.batches = append(o.batches, append([]core.Item(nil), items...))
	o.mu.Unlock()
	o.Store.AppendBatch(items)
}

// crashCopy copies st's data directory to dir at an instant between
// two log writes, then tears the copy's last segment at a random offset
// past its header, as a crash may lose any unsynced suffix. The copy
// holds the I/O lock, which freezes the segments, and reads them before
// the checkpoint file: a checkpoint may land mid-copy, but its own
// segment exists before its rename and its prune removes only older
// segments, so the copy is a state a crash could leave.
func crashCopy(t *testing.T, st *Store, dir string, rng *prng.Xoshiro256) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	copyFile := func(name string) bool {
		data, err := os.ReadFile(filepath.Join(st.opts.Dir, name))
		if os.IsNotExist(err) {
			return false // pruned by a checkpoint that has landed
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return true
	}
	st.ioMu.Lock()
	seqs, err := st.listSegments()
	if err != nil {
		st.ioMu.Unlock()
		t.Fatal(err)
	}
	var last string
	for _, seq := range seqs {
		if name := filepath.Base(st.segPath(seq)); copyFile(name) {
			last = name
		}
	}
	copyFile(ckptName)
	st.ioMu.Unlock()
	if last == "" {
		t.Fatal("the copy holds no segment")
	}

	path := filepath.Join(dir, last)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if span := fi.Size() - segHeaderSize; span > 0 {
		if err := os.Truncate(path, segHeaderSize+int64(rng.Uint64n(uint64(span)))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashCopiesRecover is the policy's crash wall: writers ingest
// while the checkpoint loop runs, until it has taken three
// checkpoints, and copies of the data directory are taken at arbitrary
// instants, about one per MiB of log whatever the machine's speed. Each
// copy must recover, and re-encode bit-identically to a fresh summary
// fed the recovered prefix of the stream in log order.
func TestCrashCopiesRecover(t *testing.T) {
	const (
		writers     = 3
		checkpoints = 3
		maxCopies   = 24
	)
	mk := func() core.Summary { return counters.NewSpaceSavingHeap(101) }
	for _, c := range []struct {
		name  string
		plane func() Target
	}{
		{"one shard", func() Target { return core.NewConcurrent(mk()) }},
		{"two shards", func() Target { return core.NewPipelined(2, mk) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			mkPlane := func() Target {
				p := c.plane()
				if pp, ok := p.(*core.Pipelined); ok {
					t.Cleanup(pp.Close)
				}
				return p
			}
			opts := Options{Algo: "SSH", Fsync: FsyncInterval, FsyncInterval: 5 * time.Millisecond, SegmentMaxBytes: 1 << 20}
			orig := mkPlane()
			st, _ := recoverFresh(t, t.TempDir(), opts, orig)
			log := &orderLog{Store: st}
			orig.PersistTo(log)
			if err := st.AutoCheckpoint(orig, 300*time.Millisecond, discard); err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				items := testStream(t, 1<<16)
				sizes := []int{4096, 1, 977, 4096, 63, 2048}
				wg.Add(1)
				go func() {
					defer wg.Done()
					off := 0
					for i := 0; i%64 != 0 || st.Stats().Checkpoints < checkpoints; i++ {
						n := sizes[(i+w)%len(sizes)]
						if off+n > len(items) {
							off = 0
						}
						orig.UpdateBatch(items[off : off+n])
						off += n
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()

			rng := prng.New(0xC0FFEE + uint64(len(c.name)))
			root := t.TempDir()
			var dirs []string
			copyNow := func() {
				dir := filepath.Join(root, fmt.Sprint(len(dirs)))
				crashCopy(t, st, dir, rng)
				dirs = append(dirs, dir)
			}
			var nextAt int64
			for running := true; running && len(dirs) < maxCopies; {
				select {
				case <-done:
					running = false
				case <-time.After(time.Millisecond):
					if st.Stats().AppendedBytes >= nextAt {
						copyNow()
						nextAt = st.Stats().AppendedBytes + int64(rng.Uint64n(2<<20))
					}
				}
			}
			<-done
			copyNow()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			type recovered struct {
				dir   string
				stats RecoveryStats
				state []byte
			}
			var recs []recovered
			for _, dir := range dirs {
				rec := mkPlane()
				st2, stats := recoverFresh(t, dir, opts, rec)
				if err := st2.Close(); err != nil {
					t.Fatal(err)
				}
				recs = append(recs, recovered{dir, stats, encodeState(t, rec)})
			}
			sort.Slice(recs, func(i, j int) bool { return recs[i].stats.RecoveredN < recs[j].stats.RecoveredN })

			fresh := mkPlane()
			next := 0
			checkpointed := 0
			for _, r := range recs {
				for fresh.LiveN() < r.stats.RecoveredN && next < len(log.batches) {
					fresh.UpdateBatch(log.batches[next])
					next++
				}
				if fresh.LiveN() != r.stats.RecoveredN {
					t.Fatalf("%s recovered n=%d, which is no batch boundary of the log (next boundary %d)",
						filepath.Base(r.dir), r.stats.RecoveredN, fresh.LiveN())
				}
				if !bytes.Equal(r.state, encodeState(t, fresh)) {
					t.Fatalf("%s recovered n=%d (checkpoint n=%d, %d records replayed), not bit-identical to the prefix",
						filepath.Base(r.dir), r.stats.RecoveredN, r.stats.CheckpointN, r.stats.ReplayedRecords)
				}
				if r.stats.CheckpointN > 0 {
					checkpointed++
				}
			}
			if checkpointed == 0 {
				t.Fatalf("none of %d copies held a checkpoint", len(recs))
			}
			t.Logf("%d copies, %d of them past a checkpoint; %d checkpoints in %d batches",
				len(recs), checkpointed, st.Stats().Checkpoints, len(log.batches))
		})
	}
}
