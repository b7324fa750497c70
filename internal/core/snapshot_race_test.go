package core_test

// Race coverage for the snapshot serving layer: readers hammer the
// snapshot-served Query/Estimate/N path (and take their own clones, and
// mutate those clones) while writers batch-ingest — under -race this
// proves the epoch publication protocol (atomic snapshot pointer,
// version counter bumped under the ingest lock, double-checked refresh)
// publishes no unguarded state. After ingest quiesces, a forced refresh
// must make reads exactly equal to a sequential reference run, using the
// same exact-counter methodology as concurrent_race_test.go.

import (
	"sync"
	"testing"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/exact"
)

// hammerSnapshotReads splits stream across raceWriters batch writers
// while reader goroutines spin on the snapshot-served read path and on
// Snapshot() clones of their own (which they update, proving clone
// independence under race).
func hammerSnapshotReads(t *testing.T, s core.Summary, stream []core.Item) {
	t.Helper()
	b := s.(core.BatchUpdater)
	sn := s.(core.Snapshotter)

	var wg sync.WaitGroup
	share := (len(stream) + raceWriters - 1) / raceWriters
	for w := 0; w < raceWriters; w++ {
		lo := min(w*share, len(stream))
		hi := min(lo+share, len(stream))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(part []core.Item) {
			defer wg.Done()
			for len(part) > 0 {
				n := min(311, len(part)) // odd batch length straddles windows
				b.UpdateBatch(part[:n])
				part = part[n:]
			}
		}(stream[lo:hi])
	}

	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func(id int) {
			defer rg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := s.N()
				_ = s.Estimate(core.Item(uint64(i)))
				rep := s.Query(n/100 + 1)
				_ = rep
				if id == 0 && i%64 == 0 {
					// A private clone taken mid-ingest must be mutable
					// without disturbing the parent.
					clone := sn.Snapshot()
					clone.Update(core.Item(1), 1)
					_ = clone.Query(1)
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
}

func TestConcurrentSnapshotReadsUnderIngest(t *testing.T) {
	stream := raceStream(t, 200_000)
	for _, maxStale := range []time.Duration{0, 2 * time.Millisecond, time.Hour} {
		s := core.NewConcurrent(exact.New()).ServeSnapshots(maxStale)
		hammerSnapshotReads(t, s, stream)
		s.RefreshSnapshot()
		checkAgainstSequential(t, s, stream, int64(len(stream)/1000))
		if st := s.SnapshotStats(); !st.Serving || st.AsOfN != int64(len(stream)) {
			t.Fatalf("maxStale=%v: SnapshotStats = %+v, want serving view of full stream", maxStale, st)
		}
	}
}

func TestShardedSnapshotReadsUnderIngest(t *testing.T) {
	stream := raceStream(t, 200_000)
	for _, maxStale := range []time.Duration{0, 2 * time.Millisecond, time.Hour} {
		s := core.NewPipelined(8, func() core.Summary { return exact.New() }).ServeSnapshots(maxStale)
		t.Cleanup(s.Close)
		hammerSnapshotReads(t, s, stream)
		s.RefreshSnapshot()
		checkAgainstSequential(t, s, stream, int64(len(stream)/1000))
		if st := s.SnapshotStats(); !st.Serving || st.AsOfN != int64(len(stream)) {
			t.Fatalf("maxStale=%v: SnapshotStats = %+v, want serving view of full stream", maxStale, st)
		}
	}
}

// TestShardedSnapshotMergeUnderIngest takes merged whole-stream
// snapshots (Pipelined.Snapshot → per-shard clones folded by Merge) while
// ingest is running: every merged clone must be a self-consistent
// Space-Saving summary (N equals its tracked mass plus nothing negative,
// and its report is monotone in the threshold), and the final one must
// obey the no-underestimate guarantee for the true heavy hitters.
func TestShardedSnapshotMergeUnderIngest(t *testing.T) {
	stream := raceStream(t, 200_000)
	const k = 256
	s := core.NewPipelined(4, func() core.Summary { return counters.NewSpaceSavingHeap(k) })
	defer s.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		core.UpdateBatches(s, stream, 509)
	}()
	var sg sync.WaitGroup
	sg.Add(1)
	go func() {
		defer sg.Done()
		var lastN int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := s.Snapshot()
			if n := snap.N(); n < lastN {
				t.Errorf("merged snapshot N went backwards: %d after %d", n, lastN)
				return
			} else {
				lastN = n
			}
		}
	}()
	wg.Wait()
	close(stop)
	sg.Wait()
	if t.Failed() {
		return
	}

	final := s.Snapshot()
	if got, want := final.N(), int64(len(stream)); got != want {
		t.Fatalf("final merged snapshot N = %d, want %d", got, want)
	}
	ref := exact.New()
	for _, it := range stream {
		ref.Update(it, 1)
	}
	for _, ic := range ref.TopK(16) {
		if est := final.Estimate(ic.Item); est < ic.Count {
			t.Fatalf("merged snapshot underestimated heavy item %d: %d < true %d", ic.Item, est, ic.Count)
		}
	}
}

// BenchmarkSnapshotServing quantifies the acceptance bound "readers
// never block writers": ingest throughput under a fixed query load
// served from snapshots must stay within a few percent of ingest-only
// (compare the sub-benchmarks' ns/op). The reader is paced by a ticker —
// a serving workload, not a spin loop — so the comparison isolates what
// the snapshot design controls (blocking on the ingest lock, clone
// cost) from raw CPU competition, and stays meaningful on small-core CI
// machines. The mutex-reads variant is the before picture: the same
// query load taking the ingest lock per read.
func BenchmarkSnapshotServing(b *testing.B) {
	stream := raceStream(b, 1<<20)
	const batch = 4096
	const queryInterval = 2 * time.Millisecond // 500 queries/s + 500 estimates/s

	ingest := func(b *testing.B, s core.Summary) {
		bu := s.(core.BatchUpdater)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := (i * batch) % (len(stream) - batch)
			bu.UpdateBatch(stream[lo : lo+batch])
		}
		b.StopTimer()
	}
	withReader := func(b *testing.B, s *core.Concurrent) {
		stop := make(chan struct{})
		var rg sync.WaitGroup
		rg.Add(1)
		go func() {
			defer rg.Done()
			tick := time.NewTicker(queryInterval)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = s.Estimate(core.Item(uint64(i)))
					_ = s.Query(s.N() / 100)
				}
			}
		}()
		ingest(b, s)
		close(stop)
		rg.Wait()
	}

	b.Run("ingest-only", func(b *testing.B) {
		ingest(b, core.NewConcurrent(counters.NewSpaceSavingHeap(1024)))
	})
	b.Run("ingest+mutex-reads", func(b *testing.B) {
		withReader(b, core.NewConcurrent(counters.NewSpaceSavingHeap(1024)))
	})
	b.Run("ingest+snapshot-reads", func(b *testing.B) {
		withReader(b, core.NewConcurrent(counters.NewSpaceSavingHeap(1024)).
			ServeSnapshots(100*time.Millisecond))
	})
}
