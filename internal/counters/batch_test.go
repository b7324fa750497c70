package counters

import (
	"fmt"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/prng"
)

// batchTestStream is a deterministic skewed stream over a small universe
// so the k-counter summaries run at capacity with steady evictions.
func batchTestStream(n int) []core.Item {
	rng := prng.New(0xBA7C4)
	out := make([]core.Item, n)
	for i := range out {
		// Two-tier mix: half the arrivals from a 16-item head, half from
		// a 4096-item tail.
		if rng.Uint64()&1 == 0 {
			out[i] = core.Item(rng.Uint64n(16))
		} else {
			out[i] = core.Item(1000 + rng.Uint64n(4096))
		}
	}
	return out
}

// entriesEqual compares two descending (item, estimate) reports.
func entriesEqual(a, b []core.ItemCount) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// headThreshold separates the stream's 16-item head tier (counts near
// n/32) from the tail churn zone (counts near the floor n/k): above it,
// batched and scalar ingest must agree bit for bit — head items are
// admitted while slots are free (zero inherited error) and never sink
// to the minimum, so aggregation cannot touch them. Below it sit the
// tied floor counters, whose occupants are not stable under any
// reordering of arrivals (the root-package equivalence test pins the
// same boundary at the φn operating point).
const headThreshold = 600

// checkSpaceSavingBatch compares a batched ingest against its scalar
// twin (exact above headThreshold) and against ground truth (the
// Space-Saving invariants, which hold for every estimate).
func checkSpaceSavingBatch(t *testing.T, label string, scalar, batched core.Summary, stream []core.Item, k int) {
	t.Helper()
	if scalar.N() != batched.N() {
		t.Fatalf("%s: N %d vs %d", label, batched.N(), scalar.N())
	}
	if !entriesEqual(scalar.Query(headThreshold), batched.Query(headThreshold)) {
		t.Fatalf("%s: head reports diverge\nscalar:  %v\nbatched: %v",
			label, scalar.Query(headThreshold), batched.Query(headThreshold))
	}
	truth := make(map[core.Item]int64)
	for _, it := range stream {
		truth[it]++
	}
	floor := batched.N() / int64(k) // Min() ≤ n/k, the replacement-error bound
	for it, true_ := range truth {
		est := batched.Estimate(it)
		if est < true_ {
			t.Fatalf("%s: Estimate(%d) = %d underestimates true %d", label, it, est, true_)
		}
		if est > true_+floor {
			t.Fatalf("%s: Estimate(%d) = %d exceeds true %d + n/k %d", label, it, est, true_, floor)
		}
	}
}

// TestSpaceSavingHeapBatch checks the heap variant's batch path across
// batch lengths that do and do not divide the stream.
func TestSpaceSavingHeapBatch(t *testing.T) {
	stream := batchTestStream(30_000)
	const k = 64
	scalar := NewSpaceSavingHeap(k)
	for _, it := range stream {
		scalar.Update(it, 1)
	}
	for _, batch := range []int{1, 13, 256, 4096} {
		batched := NewSpaceSavingHeap(k)
		core.UpdateBatches(batched, stream, batch)
		checkSpaceSavingBatch(t, fmt.Sprintf("SSH/batch=%d", batch), scalar, batched, stream, k)
	}
}

// TestSpaceSavingListBatch is the Stream-Summary counterpart, and
// additionally checks the bucket list's structural invariants survive
// weighted bulk application.
func TestSpaceSavingListBatch(t *testing.T) {
	stream := batchTestStream(30_000)
	const k = 64
	scalar := NewSpaceSavingList(k)
	for _, it := range stream {
		scalar.Update(it, 1)
	}
	batched := NewSpaceSavingList(k)
	core.UpdateBatches(batched, stream, 512)
	if !batched.validate() {
		t.Fatal("batched ingest corrupted the Stream-Summary structure")
	}
	checkSpaceSavingBatch(t, "SSL", scalar, batched, stream, k)
}

// TestFrequentBatchWithinDeficit checks the Misra–Gries batch path keeps
// every estimate inside the deterministic deficit envelope of the scalar
// run (MG's decrement schedule is order-sensitive, so bit-equality is
// not the contract — see the package-level equivalence test in the root
// package), and that the n and error accounting stay exact.
func TestFrequentBatchWithinDeficit(t *testing.T) {
	stream := batchTestStream(30_000)
	scalar := NewFrequent(64)
	for _, it := range stream {
		scalar.Update(it, 1)
	}
	batched := NewFrequent(64)
	core.UpdateBatches(batched, stream, 512)
	if scalar.N() != batched.N() {
		t.Fatalf("N %d vs %d", batched.N(), scalar.N())
	}
	// Both runs bound their deficit by n/(k+1); so any two runs' point
	// estimates differ by at most the larger deficit.
	bound := scalar.MaxError()
	if b := batched.MaxError(); b > bound {
		bound = b
	}
	if maxBound := scalar.N() / int64(scalar.k+1); bound > maxBound {
		t.Fatalf("deficit %d exceeds the n/(k+1) bound %d", bound, maxBound)
	}
	for probe := core.Item(0); probe < 16; probe++ { // the stream's head items
		d := batched.Estimate(probe) - scalar.Estimate(probe)
		if d < 0 {
			d = -d
		}
		if d > bound {
			t.Fatalf("Estimate(%d): batched %d vs scalar %d differ beyond deficit %d",
				probe, batched.Estimate(probe), scalar.Estimate(probe), bound)
		}
	}
}

// TestBatchAggScratchReuse pins the scratch lifecycle: aggregation state
// must not leak between batches or between summaries.
func TestBatchAggScratchReuse(t *testing.T) {
	s := NewSpaceSavingHeap(8)
	s.UpdateBatch([]core.Item{1, 1, 2})
	s.UpdateBatch([]core.Item{1, 3, 3, 3})
	if got := s.Estimate(1); got != 3 {
		t.Fatalf("Estimate(1) = %d, want 3 (stale batch scratch?)", got)
	}
	if got := s.Estimate(3); got != 3 {
		t.Fatalf("Estimate(3) = %d, want 3", got)
	}
	if got := s.N(); got != 7 {
		t.Fatalf("N = %d, want 7", got)
	}
	// Empty batches are no-ops.
	s.UpdateBatch(nil)
	if got := s.N(); got != 7 {
		t.Fatalf("N after empty batch = %d, want 7", got)
	}
}
