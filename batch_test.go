package streamfreq

// Semantics-preservation of the batched ingestion pipeline: for every
// registered algorithm, replaying a stream through UpdateBatches (which
// routes through each summary's native BatchUpdater path when it has
// one) must agree with the scalar Update loop on everything observable
// at the frequent-items operating point — the stream length, the
// threshold-query report at φn, and the point estimates of the reported
// and true-heaviest items.
//
// Batch implementations pre-aggregate duplicates, so within a batch an
// item's arrivals are applied where it first appears. The comparison is
// bit-exact for every algorithm except Misra–Gries, whose decrement
// schedule is genuinely order-sensitive (see checkEquivalence), and is
// checked across batch lengths that do and do not divide the stream.

import (
	"fmt"
	"testing"

	"streamfreq/internal/exact"
	"streamfreq/internal/zipf"
)

// equivStreams are the workloads the equivalence property is checked on:
// a skewed stream (many duplicates per batch — the aggregation fast
// path), a flat one (mostly distinct items — the aggregation slow path),
// and a tiny-universe churn stream that keeps every counter summary at
// capacity with constant evictions.
func equivStreams(t testing.TB) map[string][]Item {
	t.Helper()
	mk := func(universe int, z float64, n int, seed uint64) []Item {
		g, err := zipf.NewGenerator(universe, z, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		return g.Stream(n)
	}
	return map[string][]Item{
		"skewed": mk(1<<16, 1.3, 40_000, 7),
		"flat":   mk(1<<16, 0.5, 40_000, 8),
		"churn":  mk(1<<10, 0.8, 40_000, 9),
	}
}

// querySlack returns the count tolerance for one algorithm's batched-
// vs-scalar comparison. It is 0 — bit-exact — for every algorithm except
// Misra–Gries ("F"): the linear sketches are exactly reorder-invariant,
// a Space-Saving weighted update is the unit rule with the arrivals
// adjacent, and the fallback algorithms run the identical scalar path.
// MG's eviction decrement is min(count, current minimum), so moving an
// item's arrivals relative to the evolving minimum (which aggregation
// does) can shift its decrement total by a few units; both runs still
// satisfy the deterministic deficit bound n/(k+1), which is the slack.
func querySlack(algo string, streamLen int, phi float64) int64 {
	if algo == "F" {
		return int64(phi/2*float64(streamLen)) + 1 // deficit bound n/(k+1) at k = ⌈2/φ⌉
	}
	return 0
}

// checkEquivalence asserts scalar and batched agree: N exactly, the
// φn-threshold report item-for-item (counts within slack, byte-for-byte
// when slack is 0), and point estimates on the reported items plus the
// true top-20 (heavy probes within the algorithm's error envelope —
// which of several tied minimum counters holds a churning sub-threshold
// item is not stable under any reordering, so exact equality of
// noise-floor tail estimates is deliberately not part of the contract).
//
// Summaries are provisioned at ε = φ/2 (the paper's equal-guarantee
// methodology, also how the registry sizes its sketches) and queried at
// φn, which keeps the query threshold strictly above the εn churn floor:
// querying a counter summary exactly at its floor reports whichever tail
// items happen to occupy floor-valued counters, a set no processing
// order stabilizes.
func checkEquivalence(t *testing.T, label string, scalar, batched Summary, stream []Item, phi float64, slack int64) {
	t.Helper()
	if got, want := batched.N(), scalar.N(); got != want {
		t.Fatalf("%s: N: batched %d, scalar %d", label, got, want)
	}
	threshold := int64(phi * float64(len(stream)))
	sq, bq := scalar.Query(threshold), batched.Query(threshold)
	if len(sq) != len(bq) {
		t.Fatalf("%s: Query(%d): batched reports %d items, scalar %d\nscalar:  %v\nbatched: %v",
			label, threshold, len(bq), len(sq), sq, bq)
	}
	scalarCounts := make(map[Item]int64, len(sq))
	for _, ic := range sq {
		scalarCounts[ic.Item] = ic.Count
	}
	for i, ic := range bq {
		want, reported := scalarCounts[ic.Item]
		if !reported {
			t.Fatalf("%s: Query(%d)[%d]: batched reports %+v, absent from scalar report", label, threshold, i, ic)
		}
		if d := ic.Count - want; d > slack || d < -slack {
			t.Fatalf("%s: Query(%d): item %d: batched count %d, scalar %d (slack %d)",
				label, threshold, ic.Item, ic.Count, want, slack)
		}
		if slack == 0 && sq[i] != ic {
			t.Fatalf("%s: Query(%d)[%d]: batched %+v, scalar %+v (order must match exactly)",
				label, threshold, i, ic, sq[i])
		}
	}
	for it := range scalarCounts {
		bs, ss := batched.Estimate(it), scalar.Estimate(it)
		if d := bs - ss; d > slack || d < -slack {
			t.Fatalf("%s: Estimate(%d) of reported item: batched %d, scalar %d (slack %d)",
				label, it, bs, ss, slack)
		}
	}
	truth := exact.New()
	for _, it := range stream {
		truth.Update(it, 1)
	}
	envelope := slack
	if envelope == 0 {
		envelope = int64(phi/2*float64(len(stream))) + 1 // the εn error bound at ε = φ/2
	}
	for _, ic := range truth.TopK(20) {
		bs, ss := batched.Estimate(ic.Item), scalar.Estimate(ic.Item)
		if d := bs - ss; d > envelope || d < -envelope {
			t.Fatalf("%s: Estimate(%d) of heavy item: batched %d vs scalar %d exceeds error envelope %d",
				label, ic.Item, bs, ss, envelope)
		}
	}
}

// TestBatchScalarEquivalence is the acceptance property over the full
// registry: batched ingest ≡ scalar ingest for every algorithm, across
// batch lengths including 1, primes, powers of two, and the default.
func TestBatchScalarEquivalence(t *testing.T) {
	const phi = 0.005
	const seed = 42
	streams := equivStreams(t)
	for _, algo := range Algorithms() {
		for streamName, stream := range streams {
			for _, batch := range []int{1, 7, 64, 1024, DefaultBatchSize} {
				label := fmt.Sprintf("%s/%s/batch=%d", algo, streamName, batch)
				scalar := MustNew(algo, phi/2, seed)
				for _, it := range stream {
					scalar.Update(it, 1)
				}
				batched := MustNew(algo, phi/2, seed)
				UpdateBatches(batched, stream, batch)
				checkEquivalence(t, label, scalar, batched, stream, phi,
					querySlack(algo, len(stream), phi))
			}
		}
	}
}

// TestBatchScalarEquivalenceWrappers runs the same property through the
// concurrency wrappers' batch paths (one lock per batch for Concurrent;
// a scatter into per-shard staging rings for Pipelined), whose
// reordering must also be invisible: every item maps to one shard and
// per-shard order is preserved. Each plane is closed, which applies
// everything staged, before it is read.
func TestBatchScalarEquivalenceWrappers(t *testing.T) {
	const phi = 0.005
	const seed = 42
	streams := equivStreams(t)
	wrappers := []struct {
		name string
		wrap func(func() Summary) (Summary, func())
	}{
		{"Concurrent", func(f func() Summary) (Summary, func()) { return NewConcurrent(f()), func() {} }},
		{"Pipelined4", func(f func() Summary) (Summary, func()) { p := NewPipelined(4, f); return p, p.Close }},
	}
	for _, algo := range []string{"F", "SSH", "SSL", "CM"} {
		for _, w := range wrappers {
			for streamName, stream := range streams {
				label := fmt.Sprintf("%s(%s)/%s", w.name, algo, streamName)
				factory := func() Summary { return MustNew(algo, phi/2, seed) }
				scalar, closeScalar := w.wrap(factory)
				for _, it := range stream {
					scalar.Update(it, 1)
				}
				closeScalar()
				batched, closeBatched := w.wrap(factory)
				UpdateBatches(batched, stream, 512)
				closeBatched()
				checkEquivalence(t, label, scalar, batched, stream, phi,
					querySlack(algo, len(stream), phi))
			}
		}
	}
}

// TestUpdateAllFallback pins the fallback contract: a summary that does
// not implement BatchUpdater still ingests every item with unit counts.
func TestUpdateAllFallback(t *testing.T) {
	s := MustNew("LC", 0.01, 1) // Lossy Counting has no native batch path
	if _, ok := Summary(s).(BatchUpdater); ok {
		t.Fatal("test premise broken: LC now implements BatchUpdater; pick another fallback algorithm")
	}
	stream := equivStreams(t)["skewed"]
	UpdateAll(s, stream)
	if got, want := s.N(), int64(len(stream)); got != want {
		t.Fatalf("UpdateAll fallback: N = %d, want %d", got, want)
	}
}
