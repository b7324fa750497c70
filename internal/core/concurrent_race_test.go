package core_test

// Race-focused coverage for the concurrency wrappers' batch paths: N
// goroutines ingest disjoint slices of one stream through UpdateBatch
// (with readers querying mid-ingest), then the result is checked against
// a sequential reference run. Run under -race (CI does) these tests also
// prove the scatter buffers and per-batch locking publish no unguarded
// state.
//
// The equality assertions use the exact counter as the inner summary:
// its state is a pure function of the ingested multiset, so any
// interleaving of disjoint batches must reproduce the sequential result
// bit for bit. A Space-Saving inner exercises the same locking with a
// summary whose heap makes torn updates loudly corrupt, asserting the
// order-insensitive invariants (N, total tracked mass).

import (
	"sync"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/exact"
	"streamfreq/internal/zipf"
)

const raceWriters = 8

func raceStream(t testing.TB, n int) []core.Item {
	t.Helper()
	g, err := zipf.NewGenerator(1<<14, 1.1, 0xFACE, true)
	if err != nil {
		t.Fatal(err)
	}
	return g.Stream(n)
}

// ingestConcurrently splits stream across raceWriters goroutines, each
// pushing its share through s.UpdateBatch in sub-batches, while a reader
// goroutine issues queries and estimates mid-flight.
func ingestConcurrently(t *testing.T, s core.Summary, stream []core.Item) {
	t.Helper()
	b, ok := s.(core.BatchUpdater)
	if !ok {
		t.Fatalf("%T does not implement BatchUpdater", s)
	}
	var wg sync.WaitGroup
	share := (len(stream) + raceWriters - 1) / raceWriters
	for w := 0; w < raceWriters; w++ {
		lo := w * share
		hi := lo + share
		if hi > len(stream) {
			hi = len(stream)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(part []core.Item) {
			defer wg.Done()
			for len(part) > 0 {
				n := 257 // deliberately odd so batches straddle shard buffers
				if n > len(part) {
					n = len(part)
				}
				b.UpdateBatch(part[:n])
				part = part[n:]
			}
		}(stream[lo:hi])
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.N()
				_ = s.Estimate(core.Item(1))
				_ = s.Query(1 << 30) // high threshold: exercise the read path cheaply
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
}

// checkAgainstSequential asserts s (concurrently loaded) matches a
// sequential scalar run of the same stream into ref.
func checkAgainstSequential(t *testing.T, s core.Summary, stream []core.Item, threshold int64) {
	t.Helper()
	ref := exact.New()
	for _, it := range stream {
		ref.Update(it, 1)
	}
	if got, want := s.N(), int64(len(stream)); got != want {
		t.Fatalf("N after concurrent batch ingest = %d, want %d", got, want)
	}
	want := ref.Query(threshold)
	got := s.Query(threshold)
	if len(got) != len(want) {
		t.Fatalf("Query(%d): got %d items, sequential reference has %d", threshold, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Query(%d)[%d]: got %+v, reference %+v", threshold, i, got[i], want[i])
		}
	}
	for _, ic := range want[:min(len(want), 32)] {
		if got := s.Estimate(ic.Item); got != ic.Count {
			t.Fatalf("Estimate(%d) = %d, reference %d", ic.Item, got, ic.Count)
		}
	}
}

func TestConcurrentBatchIngestMatchesSequential(t *testing.T) {
	stream := raceStream(t, 200_000)
	s := core.NewConcurrent(exact.New())
	ingestConcurrently(t, s, stream)
	checkAgainstSequential(t, s, stream, int64(len(stream)/1000))
}

func TestShardedBatchIngestMatchesSequential(t *testing.T) {
	stream := raceStream(t, 200_000)
	s := core.NewPipelined(8, func() core.Summary { return exact.New() })
	defer s.Close()
	ingestConcurrently(t, s, stream)
	s.Drain()
	checkAgainstSequential(t, s, stream, int64(len(stream)/1000))
}

// TestShardedSpaceSavingBatchIngest drives the eviction-heavy
// Space-Saving heap through the sharded plane's batch path under
// concurrency.
// SSH results depend on arrival interleaving, so only order-insensitive
// invariants are asserted: the total count, the per-shard capacity
// bound, and Space-Saving's no-underestimate guarantee for the heavy
// hitters of a sequential reference run.
func TestShardedSpaceSavingBatchIngest(t *testing.T) {
	stream := raceStream(t, 200_000)
	const k = 256
	s := core.NewPipelined(4, func() core.Summary { return counters.NewSpaceSavingHeap(k) })
	defer s.Close()
	ingestConcurrently(t, s, stream)
	s.Drain()
	if got, want := s.N(), int64(len(stream)); got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	ref := exact.New()
	for _, it := range stream {
		ref.Update(it, 1)
	}
	for _, ic := range ref.TopK(16) {
		if est := s.Estimate(ic.Item); est < ic.Count {
			t.Fatalf("Space-Saving underestimated heavy item %d: %d < true %d", ic.Item, est, ic.Count)
		}
	}
}

// TestConcurrentMixedScalarAndBatchWriters interleaves scalar Update
// calls with UpdateBatch calls from different goroutines — the two paths
// share one mutex and must compose.
func TestConcurrentMixedScalarAndBatchWriters(t *testing.T) {
	stream := raceStream(t, 100_000)
	s := core.NewConcurrent(exact.New())
	half := len(stream) / 2
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, it := range stream[:half] {
			s.Update(it, 1)
		}
	}()
	go func() {
		defer wg.Done()
		core.UpdateBatches(s, stream[half:], 1023)
	}()
	wg.Wait()
	checkAgainstSequential(t, s, stream, int64(len(stream)/1000))
}
