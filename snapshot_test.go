package streamfreq

// Snapshot fidelity, registry-wide: for every algorithm, a snapshot
// taken after a prefix of the stream must (a) answer Query(φn) and
// Estimate bit-identically to a fresh summary fed the same prefix, and
// (b) stay frozen while the parent ingests the rest of the stream —
// updates flow in neither direction between parent and snapshot. Both
// summaries are fed by the scalar Update loop so the comparison is over
// identical ingest schedules (batching equivalence is batch_test.go's
// property, not this one's).

import (
	"testing"
	"time"

	"streamfreq/internal/counters"
	"streamfreq/internal/exact"
	"streamfreq/internal/zipf"
)

// snapshotStream returns the test workload split into the snapshotted
// prefix and the post-snapshot suffix.
func snapshotStream(t testing.TB) (prefix, suffix []Item) {
	t.Helper()
	g, err := zipf.NewGenerator(1<<14, 1.1, 0xBEEF, true)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stream(30_000)
	return s[:20_000], s[20_000:]
}

// feedScalar replays items through the scalar Update path.
func feedScalar(s Summary, items []Item) {
	for _, it := range items {
		s.Update(it, 1)
	}
}

// requireIdentical asserts two summaries are observationally equal at
// the frequent-items operating point: same N, byte-identical Query
// report at threshold, and equal point estimates on the report plus the
// probe items.
func requireIdentical(t *testing.T, label string, got, want Summary, threshold int64, probes []Item) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: N = %d, want %d", label, got.N(), want.N())
	}
	gq, wq := got.Query(threshold), want.Query(threshold)
	if len(gq) != len(wq) {
		t.Fatalf("%s: Query(%d): %d items, want %d\ngot:  %v\nwant: %v", label, threshold, len(gq), len(wq), gq, wq)
	}
	for i := range wq {
		if gq[i] != wq[i] {
			t.Fatalf("%s: Query(%d)[%d] = %+v, want %+v", label, threshold, i, gq[i], wq[i])
		}
	}
	for _, ic := range wq {
		if ge, we := got.Estimate(ic.Item), want.Estimate(ic.Item); ge != we {
			t.Fatalf("%s: Estimate(%d) = %d, want %d", label, ic.Item, ge, we)
		}
	}
	for _, it := range probes {
		if ge, we := got.Estimate(it), want.Estimate(it); ge != we {
			t.Fatalf("%s: Estimate(probe %d) = %d, want %d", label, it, ge, we)
		}
	}
}

// snapshotProbes picks the true top items of the prefix plus a few
// untracked ones, so fidelity is checked on hits and misses alike.
func snapshotProbes(prefix []Item) []Item {
	truth := exact.New()
	for _, it := range prefix {
		truth.Update(it, 1)
	}
	probes := make([]Item, 0, 36)
	for _, ic := range truth.TopK(32) {
		probes = append(probes, ic.Item)
	}
	// Items almost surely absent from the stream (the generator scrambles
	// ranks through Mix64, so tiny raw values are out of its range).
	return append(probes, 1, 2, 3, 0xdeadbeef)
}

// checkSnapshotFidelity runs the full property for one summary factory.
func checkSnapshotFidelity(t *testing.T, label string, mk func() Summary) {
	t.Helper()
	prefix, suffix := snapshotStream(t)
	probes := snapshotProbes(prefix)
	const phi = 0.005
	threshold := int64(phi * float64(len(prefix)))

	parent := mk()
	fresh := mk()
	feedScalar(parent, prefix)
	feedScalar(fresh, prefix)

	sn, ok := parent.(Snapshotter)
	if !ok {
		t.Fatalf("%s: %T does not implement Snapshotter", label, parent)
	}
	snap := sn.Snapshot()

	// (a) The snapshot is bit-identical to a fresh summary fed the prefix.
	requireIdentical(t, label+"/post-clone", snap, fresh, threshold, probes)

	// (b) Parent updates never leak into the snapshot.
	feedScalar(parent, suffix)
	requireIdentical(t, label+"/parent-advanced", snap, fresh, threshold, probes)

	// (c) Snapshot updates never leak into the parent: a second snapshot
	// absorbs extra arrivals while a reference copy of the parent pins the
	// parent's state.
	ref := parent.(Snapshotter).Snapshot()
	snap2 := parent.(Snapshotter).Snapshot()
	feedScalar(snap2, prefix[:1000])
	requireIdentical(t, label+"/snapshot-advanced", parent, ref, threshold, probes)
}

// TestSnapshotFidelityRegistry is the acceptance property over the full
// registry.
func TestSnapshotFidelityRegistry(t *testing.T) {
	const seed = 42
	for _, algo := range Algorithms() {
		t.Run(algo, func(t *testing.T) {
			checkSnapshotFidelity(t, algo, func() Summary {
				return MustNew(algo, 0.0025, seed)
			})
		})
	}
}

// TestSnapshotFidelityExtras extends the property to the summaries
// outside the registry roster: the ablation/extension algorithms, the
// exact baseline, and the Concurrent wrapper (whose Snapshot must equal
// its inner clone).
func TestSnapshotFidelityExtras(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Summary
	}{
		{"CMC-tracked", func() Summary { return NewTracked(NewCountMinConservative(4, 512, 7), 256) }},
		{"CS-tracked", func() Summary { return NewTracked(NewCountSketch(5, 512, 7), 256) }},
		{"FSS", func() Summary { return NewFilteredSpaceSaving(400, 0, 7) }},
		{"F-naive", func() Summary { return counters.NewFrequentNaive(400) }},
		{"CGT-16bit", func() Summary { return NewCGT(4, 512, 16, 7) }},
		{"Exact", func() Summary { return exact.New() }},
		{"Concurrent(SSH)", func() Summary { return NewConcurrent(NewSpaceSaving(400)) }},
		// The sliding-window summary: the clone must freeze the whole
		// ring — block contents, head position, and fill — so the
		// fidelity and no-leak legs also pin that rotations on one side
		// never disturb the other.
		{"Windowed", func() Summary {
			w, err := NewWindowed(8000, 8, 400)
			if err != nil {
				panic(err)
			}
			return w
		}},
		// The GK quantile summary: deterministic insert/compress schedule,
		// so the full fidelity check (clone tracks replay bit for bit)
		// applies.
		{"GK", func() Summary { return NewQuantile(0.01) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkSnapshotFidelity(t, tc.name, tc.mk)
		})
	}
}

// TestShardedSnapshotMergesShards pins Pipelined.Snapshot's contract:
// the merged clone is one independent summary of the whole stream, cut
// at a barrier after every staged batch. With the exact counter inside,
// the merge must reproduce a sequential run bit for bit — and keep
// reproducing it after the parent ingests more.
func TestShardedSnapshotMergesShards(t *testing.T) {
	prefix, suffix := snapshotStream(t)
	probes := snapshotProbes(prefix)
	threshold := int64(0.005 * float64(len(prefix)))

	sh := NewPipelined(4, func() Summary { return exact.New() })
	defer sh.Close()
	UpdateBatches(sh, prefix, 0)
	snap := sh.Snapshot()

	want := exact.New()
	feedScalar(want, prefix)
	requireIdentical(t, "sharded-merged", snap, want, threshold, probes)

	UpdateBatches(sh, suffix, 0)
	requireIdentical(t, "sharded-merged/parent-advanced", snap, want, threshold, probes)
}

// TestConcurrentServingReads pins the snapshot-serving read path's
// bounded-staleness contract on a single goroutine, where the sequence
// of events is deterministic: a read after new writes within the
// staleness window may serve the old epoch; RefreshSnapshot (and any
// read once the summary is dirty past the window) serves current state.
func TestConcurrentServingReads(t *testing.T) {
	c := NewConcurrent(exact.New()).ServeSnapshots(time.Hour)
	c.Update(1, 5)
	// The serving snapshot was taken at construction (empty, version 0);
	// the summary is dirty but well inside the 1h staleness bound, so the
	// read may not see the write yet.
	if got := c.Estimate(1); got != 0 && got != 5 {
		t.Fatalf("Estimate within staleness window = %d, want 0 (stale) or 5 (refreshed)", got)
	}
	if v := c.RefreshSnapshot(); v == nil {
		t.Fatal("RefreshSnapshot returned nil with serving enabled")
	}
	if got := c.Estimate(1); got != 5 {
		t.Fatalf("Estimate after refresh = %d, want 5", got)
	}
	if got := c.N(); got != 5 {
		t.Fatalf("N after refresh = %d, want 5", got)
	}
	st := c.SnapshotStats()
	if !st.Serving || st.AsOfN != 5 || st.Refreshes < 2 {
		t.Fatalf("SnapshotStats = %+v, want serving view of N=5 after ≥2 refreshes", st)
	}

	// ServingView pins one epoch: reads against the view stay mutually
	// consistent however much the parent ingests afterwards.
	view := c.ServingView()
	if view == nil {
		t.Fatal("ServingView returned nil with serving enabled")
	}
	c.Update(1, 100)
	if view.N() != 5 || view.Estimate(1) != 5 {
		t.Fatalf("pinned view moved: N=%d Estimate=%d, want 5/5", view.N(), view.Estimate(1))
	}

	// maxStale 0: any read that observes a mutation re-clones, so reads
	// are always fresh.
	c0 := NewConcurrent(exact.New()).ServeSnapshots(0)
	c0.Update(9, 3)
	if got := c0.Estimate(9); got != 3 {
		t.Fatalf("always-fresh Estimate = %d, want 3", got)
	}
	if NewConcurrent(exact.New()).ServingView() != nil {
		t.Fatal("ServingView must be nil without serving enabled")
	}
}
