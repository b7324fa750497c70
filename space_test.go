package streamfreq

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"streamfreq/internal/tenant"
	"streamfreq/internal/zipf"
)

// TestMeasuredSpace holds Bytes() — the bytes column of the paper's
// space plots — to what a summary really keeps on the heap: for every
// registry algorithm, plus FSS, the median of three heap probes after
// feeding a Zipf stream must land within ±5% of Bytes(). Stores that
// never fill are held to it too: SSH and SSL at k = 1,001 fed 300
// distinct items, and a 300-entry SS02 blob decoded and fed one more
// new item.
func TestMeasuredSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("feeds 250,000 items through eleven summaries six times; skipped with -short")
	}
	const (
		phi  = 0.0001
		n    = 250_000
		seed = 42
	)
	type build struct {
		name string
		mk   func() Summary
	}
	var builds []build
	for _, name := range Algorithms() {
		builds = append(builds, build{name, func() Summary { return MustNew(name, phi, seed) }})
	}
	builds = append(builds, build{"FSS", func() Summary { return NewFilteredSpaceSaving(int(1/phi)+1, 0, seed) }})
	for _, z := range []float64{0.8, 1.2} {
		g, err := zipf.NewGenerator(1<<20, z, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		items := g.Stream(n)
		for _, b := range builds {
			t.Run(fmt.Sprintf("%s/z=%.1f", b.name, z), func(t *testing.T) { checkRetained(t, b.mk, items) })
		}
	}

	const sparsePhi = 0.001 // a budget of k = 1,001 counters
	distinct := make([]Item, 3000)
	for i := range distinct {
		distinct[i] = Item(i % 300)
	}
	for _, name := range []string{"SSH", "SSL"} {
		t.Run(name+"/300of1001", func(t *testing.T) {
			checkRetained(t, func() Summary { return MustNew(name, sparsePhi, seed) }, distinct)
		})
	}
	t.Run("SS02/decoded300+1", func(t *testing.T) {
		blob := marshal(t, "SSH", func() Summary {
			s := MustNew("SSH", sparsePhi, seed)
			UpdateAll(s, distinct)
			return s
		}())
		checkRetained(t, func() Summary {
			s, err := Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, []Item{300})
	})
}

// checkRetained requires the summary mk builds, fed items, to retain
// within ±5% of its Bytes(), in the median of three heap probes.
func checkRetained(t *testing.T, mk func() Summary, items []Item) {
	t.Helper()
	var ratios [3]float64
	var declared int
	for i := range ratios {
		var retained int64
		retained, declared = retainedBytes(mk, items)
		ratios[i] = float64(retained) / float64(declared)
	}
	slices.Sort(ratios[:])
	t.Logf("Bytes() = %d, retained/Bytes() = %.3f (probes %.3f)", declared, ratios[1], ratios)
	if r := ratios[1]; r < 0.95 || r > 1.05 {
		t.Errorf("retains %.3f× its Bytes() of %d, want within ±5%%", r, declared)
	}
}

// retainedBytes builds a summary, feeds it items, and returns the heap
// growth it left behind together with its Bytes().
func retainedBytes(mk func() Summary, items []Item) (retained int64, declared int) {
	before := liveHeap()
	s := mk()
	UpdateAll(s, items)
	after := liveHeap()
	runtime.KeepAlive(items)
	return int64(after) - int64(before), s.Bytes()
}

// liveHeap reads HeapAlloc after two collections, so garbage and pooled
// batch scratch are gone and only reachable memory counts.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBytesIsCheckpointState is the one space rule for durable targets
// (a persist.Target: the plane or the tenant table): Bytes() is the
// footprint of the state its checkpoint barrier hands over, an evicted
// tenant counting at its blob's length. Staging rings and serving
// clones are transient copies and do not count, so the checkpoint
// loop's volume trigger, 8 × Bytes(), reads the state a restart loads.
func TestBytesIsCheckpointState(t *testing.T) {
	const phi = 0.001
	g, err := zipf.NewGenerator(1<<16, 1.1, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	items := g.Stream(1 << 16)
	barrierBytes := func(views []Summary) (total int) {
		for _, v := range views {
			total += v.Bytes()
		}
		return total
	}

	type build struct {
		name string
		mk   func() (Summary, error)
	}
	var builds []build
	for _, name := range Algorithms() {
		builds = append(builds, build{name, func() (Summary, error) { return New(name, phi, 1) }})
	}
	builds = append(builds,
		build{"GK", func() (Summary, error) { return NewQuantileForPhi(phi) }},
		build{"SSW", func() (Summary, error) { return NewWindowedForPhi(phi, 1<<15, 8) }})
	for _, b := range builds {
		t.Run("serving/"+b.name, func(t *testing.T) {
			inner, err := b.mk()
			if err != nil {
				t.Fatal(err)
			}
			c := NewConcurrent(inner).ServeSnapshots(time.Hour)
			UpdateBatches(c, items, 4096)
			c.RefreshSnapshot()
			if got, want := c.Bytes(), barrierBytes(c.SnapshotBarrier(nil)); got != want {
				t.Fatalf("Bytes() = %d, checkpoint state %d", got, want)
			}
		})
	}

	t.Run("pipelined/SSH", func(t *testing.T) {
		p := NewPipelined(2, func() Summary { return MustNew("SSH", phi, 1) }).ServeSnapshots(time.Hour)
		defer p.Close()
		g, err := zipf.NewGenerator(1<<20, 1.1, 9, true)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]Item, 8192)
		for i := 0; i < 64; i++ {
			for j := range batch {
				batch[j] = g.Next()
			}
			p.UpdateBatch(batch)
		}
		p.RefreshSnapshot()
		if got, want := p.Bytes(), barrierBytes(p.SnapshotBarrier(nil)); got != want {
			t.Fatalf("Bytes() = %d, checkpoint state %d", got, want)
		}
	})

	t.Run("tenants", func(t *testing.T) {
		tb, err := tenant.NewTable(tenant.Options{DefaultPhi: 0.01, MaxResident: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			ns := fmt.Sprintf("t%d", i%12)
			off := (i * 512) % len(items)
			if _, _, err := tb.IngestBatch(ns, items[off:off+512]); err != nil {
				t.Fatal(err)
			}
		}
		if st := tb.TableStats(); st.Evictions == 0 || st.Reloads == 0 {
			t.Fatalf("no eviction churn: %+v", st)
		}
		var want int
		for _, st := range tb.TenantSnapshotBarrier(nil) {
			if st.Summary != nil {
				want += st.Summary.Bytes()
			} else {
				want += len(st.Blob)
			}
		}
		if got := tb.Bytes(); got != want {
			t.Fatalf("Bytes() = %d, checkpoint state %d", got, want)
		}
	})
}
