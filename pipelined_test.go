package streamfreq

// Property wall for the pipelined ingest plane (core.Pipelined): the
// PR-1 batched==scalar determinism and the PR-3 crash-recovery
// fidelity must survive the move from mutex ingest to staged rings.
// The load-bearing claim is ordering — per-shard apply order equals
// global claim order — so the wall compares states by Encode bytes,
// not by query answers.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/persist"
)

// unevenBatches slices stream at deliberately irregular boundaries,
// the unit both the WAL and the staging rings preserve.
func unevenBatches(stream []Item) [][]Item {
	sizes := []int{512, 7, 1024, 129, 2048, 33}
	var batches [][]Item
	for i := 0; len(stream) > 0; i++ {
		n := sizes[i%len(sizes)]
		if n > len(stream) {
			n = len(stream)
		}
		batches = append(batches, stream[:n])
		stream = stream[n:]
	}
	return batches
}

// sequentialPlane is the reference the walls compare against: a closed
// plane, whose UpdateBatch scatters each batch straight into the shard
// summaries with no ring and no drainer.
func sequentialPlane(shards int, factory func() core.Summary) *core.Pipelined {
	p := core.NewPipelined(shards, factory)
	p.Close()
	return p
}

// TestPipelinedMatchesSequentialRegistry is the acceptance property
// over the full registry: single-writer pipelined ingest is
// bit-identical (per-shard Encode bytes) to a sequential scatter of the
// same batches — the staged rings reproduce exactly the per-shard
// order a synchronous scatter produces.
func TestPipelinedMatchesSequentialRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("property wall: full registry sweep")
	}
	const phi, seed, shards = 0.001, 20080824, 4
	streams := equivStreams(t)
	for _, algo := range Algorithms() {
		algo := algo
		for _, name := range []string{"skewed", "flat", "churn"} {
			stream := streams[name]
			t.Run(algo+"/"+name, func(t *testing.T) {
				factory := func() core.Summary { return MustNew(algo, phi, seed) }
				seq := sequentialPlane(shards, factory)
				pip := core.NewPipelined(shards, factory)
				defer pip.Close()
				for _, b := range unevenBatches(stream) {
					seq.UpdateBatch(b)
					pip.UpdateBatch(b)
				}
				if !bytes.Equal(marshalState(t, seq), marshalState(t, pip)) {
					t.Fatalf("%s/%s: pipelined shard state is not bit-identical to the sequential scatter", algo, name)
				}
			})
		}
	}
}

// TestPipelinedConcurrentWritersCommutative runs many writers with
// arbitrary claim interleavings against the purely linear sketches
// (CMH, CGT — counter arrays with no tracking heap), whose per-shard
// state is a sum and therefore order-invariant: whatever order the
// plane applied, the final bytes must equal the sequential run's.
// (Order-dependent algorithms — anything with a heap or eviction — are
// covered by the single-writer bit-identity above and the op-log
// ordering test in internal/core.)
func TestPipelinedConcurrentWritersCommutative(t *testing.T) {
	const phi, seed, shards, writers = 0.001, 20080824, 4, 8
	stream := equivStreams(t)["skewed"]
	batches := unevenBatches(stream)
	for _, algo := range []string{"CMH", "CGT"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			factory := func() core.Summary { return MustNew(algo, phi, seed) }
			seq := sequentialPlane(shards, factory)
			for _, b := range batches {
				seq.UpdateBatch(b)
			}
			pip := core.NewPipelined(shards, factory)
			defer pip.Close()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(batches); i += writers {
						pip.UpdateBatch(batches[i])
					}
				}(w)
			}
			wg.Wait()
			if !bytes.Equal(marshalState(t, seq), marshalState(t, pip)) {
				t.Fatalf("%s: concurrent pipelined ingest diverged from the sequential state", algo)
			}
		})
	}
}

// TestCrashRecoveryPipelined runs the PR-3 kill-at-arbitrary-offset
// wall through the pipelined plane: WAL order equals claim order
// equals apply order, so a torn log still replays to a bit-identical
// state. Two algorithms: order-dependent SSH and sketch CM.
func TestCrashRecoveryPipelined(t *testing.T) {
	for _, algo := range []string{"SSH", "CM"} {
		algo := algo
		for round := uint64(0); round < 2; round++ {
			t.Run(fmt.Sprintf("%s-4shards/tear-%d", algo, round), func(t *testing.T) {
				checkCrashRecovery(t, algo, func() persist.Target {
					return core.NewPipelined(4, func() core.Summary {
						return MustNew(algo, 0.0025, 42)
					})
				}, 0xBEEF+round*131+uint64(len(algo)))
			})
		}
	}
}

// TestPipelinedCheckpointUnderConcurrentIngest checkpoints a live,
// multi-writer pipelined plane repeatedly: every checkpoint cut must
// match the WAL position exactly (persist.Checkpoint latches an error
// otherwise), and a restart from the final log must reproduce the
// plane's state byte for byte.
func TestPipelinedCheckpointUnderConcurrentIngest(t *testing.T) {
	const shards, writers, rounds, batch = 4, 4, 60, 97
	dir := t.TempDir()
	opts := persist.Options{Dir: dir, Algo: "SSH", Fsync: persist.FsyncNever, Decode: Decode}
	factory := func() core.Summary { return MustNew("SSH", 0.0025, 42) }

	p := core.NewPipelined(shards, factory)
	st, err := persist.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(p); err != nil {
		t.Fatal(err)
	}
	p.PersistTo(st)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]Item, batch)
			for i := 0; i < rounds; i++ {
				for j := range buf {
					buf[j] = Item(uint64(w)<<32 | uint64(i*batch+j)%4096)
				}
				p.UpdateBatch(buf)
			}
		}(w)
	}
	for c := 0; c < 8; c++ {
		if _, err := st.Checkpoint(p); err != nil {
			t.Fatalf("checkpoint %d under concurrent ingest: %v", c, err)
		}
	}
	wg.Wait()
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rec := core.NewPipelined(shards, factory)
	st2, err := persist.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stats, err := st2.Recover(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(writers * rounds * batch)
	if stats.RecoveredN != want || rec.LiveN() != want {
		t.Fatalf("recovered n=%d (LiveN %d), want %d", stats.RecoveredN, rec.LiveN(), want)
	}
	if !bytes.Equal(marshalState(t, p), marshalState(t, rec)) {
		t.Fatal("restart from the final log did not reproduce the live plane's state")
	}
}
