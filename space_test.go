package streamfreq

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"streamfreq/internal/zipf"
)

// TestMeasuredSpace holds Bytes() — the bytes column of the paper's
// space plots — to what a summary really keeps on the heap: for every
// registry algorithm, plus FSS, the median of three heap probes after
// feeding a Zipf stream must land within ±5% of Bytes().
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
			t.Run(fmt.Sprintf("%s/z=%.1f", b.name, z), func(t *testing.T) {
				var ratios [3]float64
				var declared int
				for i := range ratios {
					var retained int64
					retained, declared = retainedBytes(b.mk, items)
					ratios[i] = float64(retained) / float64(declared)
				}
				slices.Sort(ratios[:])
				t.Logf("Bytes() = %d, retained/Bytes() = %.3f (probes %.3f)", declared, ratios[1], ratios)
				if r := ratios[1]; r < 0.95 || r > 1.05 {
					t.Errorf("retains %.3f× its Bytes() of %d, want within ±5%%", r, declared)
				}
			})
		}
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
