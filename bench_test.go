package streamfreq

// One benchmark per table/figure of the reconstructed evaluation (the
// experiment index is harness.Experiments; freqbench -list prints it).
// Accuracy columns are regenerated by the harness
// (cmd/freqbench); the benchmarks here measure the performance dimension
// of each figure — per-update cost, query latency, space — via
// testing.B, with custom metrics reported where ns/op alone does not
// capture the paper's plotted quantity.
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkF6SketchSkew

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/hash"
	"streamfreq/internal/obs"
	"streamfreq/internal/sketches"
	"streamfreq/internal/trace"
	"streamfreq/internal/zipf"
)

const (
	benchStreamLen = 1 << 17
	benchPhi       = 0.001
	benchSeed      = 20080824
)

// benchStream materializes a reusable Zipf stream.
func benchStream(b *testing.B, z float64) []Item {
	b.Helper()
	g, err := zipf.NewGenerator(1<<20, z, benchSeed, true)
	if err != nil {
		b.Fatal(err)
	}
	return g.Stream(benchStreamLen)
}

func benchHTTPStream(b *testing.B) []Item {
	b.Helper()
	g, err := trace.NewHTTP(trace.DefaultHTTPConfig(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	return g.Stream(benchStreamLen)
}

func benchUDPStream(b *testing.B) []Item {
	b.Helper()
	g, err := trace.NewUDP(trace.DefaultUDPConfig(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	return g.Stream(benchStreamLen)
}

// benchUpdates measures per-update cost of algo on stream and reports
// updates/ms (the paper's throughput unit) as a custom metric.
func benchUpdates(b *testing.B, algo string, phi float64, stream []Item) {
	b.Helper()
	s := MustNew(algo, phi, benchSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(stream[i%len(stream)], 1)
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if perOp > 0 {
		b.ReportMetric(1e6/perOp, "upd/ms")
	}
	b.ReportMetric(float64(s.Bytes()), "bytes")
}

var counterRoster = []string{"F", "LC", "LCD", "SSL", "SSH"}
var sketchRoster = []string{"CM", "CS", "CMH", "CSH", "CGT"}

// benchBatchUpdates is benchUpdates through the batched ingest path:
// the same stream replayed through core.UpdateAll in DefaultBatchSize
// chunks, so the scalar-vs-batch speedup of every summary is tracked in
// the perf trajectory by comparing BenchmarkUpdateBatch against
// BenchmarkT1Update (same metric, same streams).
func benchBatchUpdates(b *testing.B, mk func() Summary, stream []Item) {
	b.Helper()
	s := mk()
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		off := done % len(stream)
		n := DefaultBatchSize
		if n > b.N-done {
			n = b.N - done
		}
		if n > len(stream)-off {
			n = len(stream) - off
		}
		UpdateAll(s, stream[off:off+n])
		done += n
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if perOp > 0 {
		b.ReportMetric(1e6/perOp, "upd/ms")
	}
	b.ReportMetric(float64(s.Bytes()), "bytes")
}

// BenchmarkUpdateBatch is BenchmarkT1Update's batched twin across the
// full roster (algorithms without a native batch path measure the
// UpdateAll fallback, i.e. the dispatch overhead alone).
func BenchmarkUpdateBatch(b *testing.B) {
	stream := benchStream(b, 1.0)
	for _, algo := range Algorithms() {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			benchBatchUpdates(b, func() Summary { return MustNew(algo, benchPhi, benchSeed) }, stream)
		})
	}
}

// BenchmarkUpdateBatchDistinct is BenchmarkUpdateBatch for the linear
// sketches on a stream without repeats (Mix64 of the stream position):
// the case where the batch collapse merges nothing and only adds its
// scratch-table pass. flatCM and flatCS are the registry's sketches
// without their trackers; registry CM hands its collapsed batch to the
// sketch, and registry CS replays per arrival.
func BenchmarkUpdateBatchDistinct(b *testing.B) {
	stream := make([]Item, benchStreamLen)
	for i := range stream {
		stream[i] = Item(hash.Mix64(uint64(i)))
	}
	width := sketchWidth(benchPhi)
	cases := []struct {
		name string
		mk   func() Summary
	}{
		{"CM", func() Summary { return MustNew("CM", benchPhi, benchSeed) }},
		{"CS", func() Summary { return MustNew("CS", benchPhi, benchSeed) }},
		{"CMH", func() Summary { return MustNew("CMH", benchPhi, benchSeed) }},
		{"CSH", func() Summary { return MustNew("CSH", benchPhi, benchSeed) }},
		{"flatCM", func() Summary { return NewCountMin(sketchDepth, width, benchSeed) }},
		{"flatCS", func() Summary { return NewCountSketch(sketchDepth+1, width, benchSeed) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { benchBatchUpdates(b, c.mk, stream) })
	}
}

// BenchmarkUpdateBatchSharded is the acceptance benchmark of the batch
// pipeline: single-writer Concurrent(SSH) ingest, scalar loop vs one
// lock per batch, swept over skew because the batch win is duplicate-
// collapse driven. Each in-batch repeat of an item costs one L1-resident
// scratch probe instead of a lock + index-probe + heap-sift round trip, so
// the speedup tracks the in-batch duplicate fraction (40% at z=1.0, 91%
// at z=1.5 — the skew regime of the paper's real HTTP/UDP traces). The
// residual per-*distinct* cost is SpaceSavingHeap.Update itself (its
// index probe and heap sift), which batching pays once per distinct
// item per batch, identically to scalar.
func BenchmarkUpdateBatchSharded(b *testing.B) {
	for _, z := range []float64{1.0, 1.5} {
		stream := benchStream(b, z)
		mk := func() Summary { return NewConcurrent(NewSpaceSaving(1000)) }
		b.Run(fmt.Sprintf("scalar/z=%.1f", z), func(b *testing.B) {
			s := mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(stream[i%len(stream)], 1)
			}
			b.StopTimer()
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(1e6/perOp, "upd/ms")
			}
		})
		b.Run(fmt.Sprintf("batch/z=%.1f", z), func(b *testing.B) {
			benchBatchUpdates(b, mk, stream)
		})
	}

	// Multi-writer sweep of the sharded plane: writers pull batch
	// indices off one atomic cursor and stage them into the rings. The
	// pipelined win is writer-side: a writer stages and moves on while
	// the per-shard drainers apply behind it, so with real cores the
	// writers scale. (On a single-core box the drainers time-share with
	// the writers — interpret multi-writer numbers only on multi-core
	// hardware.)
	stream := benchStream(b, 1.5)
	for _, algo := range []string{"SSH", "CM"} {
		algo := algo
		factory := func() Summary { return MustNew(algo, benchPhi, benchSeed) }
		for _, writers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("pipelined/%s/writers=%d", algo, writers), func(b *testing.B) {
				p := NewPipelined(4, factory)
				defer p.Close()
				benchPlane(b, p, stream, writers)
			})
		}
	}
}

// benchPlane pushes ~b.N items through the plane from `writers`
// concurrent goroutines in DefaultBatchSize batches. The drain runs
// inside the timed region: staged-but-unapplied items are not done.
func benchPlane(b *testing.B, p *core.Pipelined, stream []Item, writers int) {
	b.Helper()
	var batches [][]Item
	for i := 0; i+DefaultBatchSize <= len(stream); i += DefaultBatchSize {
		batches = append(batches, stream[i:i+DefaultBatchSize])
	}
	want := (b.N + DefaultBatchSize - 1) / DefaultBatchSize
	b.ReportAllocs()
	b.ResetTimer()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= want {
					return
				}
				p.UpdateBatch(batches[i%len(batches)])
			}
		}()
	}
	wg.Wait()
	p.Drain()
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(want*DefaultBatchSize)
	if perOp > 0 {
		b.ReportMetric(1e6/perOp, "upd/ms")
	}
}

// BenchmarkPipelinedIngest is the allocation gate of the ingest plane:
// steady-state staged ingest must run at 0 allocs/op. The plane and
// the batch buffer exist before the timer; the ring slots reuse their
// item buffers after the first wrap, so the hot path — claim, stage,
// publish, drain-apply — allocates nothing. CI diffs this benchmark's
// allocs/op against the committed baseline at threshold 0.
func BenchmarkPipelinedIngest(b *testing.B) {
	stream := benchStream(b, 1.0)
	for _, algo := range []string{"SSH", "CM"} {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			p := NewPipelined(4, func() Summary { return MustNew(algo, benchPhi, benchSeed) })
			defer p.Close()
			// Warm the rings through one full wrap so slot buffers reach
			// steady-state capacity before counting allocations.
			warm := core.DefaultRingCapacity * DefaultBatchSize
			for i := 0; i+DefaultBatchSize <= warm; i += DefaultBatchSize {
				p.UpdateBatch(stream[i%len(stream) : i%len(stream)+DefaultBatchSize])
			}
			p.Drain()
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for done < b.N {
				off := done % (len(stream) - DefaultBatchSize)
				n := DefaultBatchSize
				if n > b.N-done {
					n = b.N - done
				}
				p.UpdateBatch(stream[off : off+n])
				done += n
			}
			p.Drain()
			b.StopTimer()
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(1e6/perOp, "upd/ms")
			}
		})
	}
}

// BenchmarkT1Update is Table 1's update-cost column across the roster.
func BenchmarkT1Update(b *testing.B) {
	stream := benchStream(b, 1.0)
	for _, algo := range Algorithms() {
		b.Run(algo, func(b *testing.B) { benchUpdates(b, algo, benchPhi, stream) })
	}
}

// BenchmarkT1Query is Table 1's query-cost column: latency of a
// threshold query on a populated summary.
func BenchmarkT1Query(b *testing.B) {
	stream := benchStream(b, 1.0)
	threshold := int64(benchPhi * float64(len(stream)))
	for _, algo := range Algorithms() {
		b.Run(algo, func(b *testing.B) {
			s := MustNew(algo, benchPhi, benchSeed)
			for _, it := range stream {
				s.Update(it, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Query(threshold)
			}
		})
	}
}

// benchSkewSweep is the shared skeleton of the F1/F2 (counter) and F6/F7
// (sketch) skew figures.
func benchSkewSweep(b *testing.B, roster []string) {
	for _, z := range []float64{0.5, 1.0, 1.5, 2.0, 3.0} {
		stream := benchStream(b, z)
		for _, algo := range roster {
			b.Run(fmt.Sprintf("%s/z=%.1f", algo, z), func(b *testing.B) {
				benchUpdates(b, algo, benchPhi, stream)
			})
		}
	}
}

// BenchmarkF1CounterSkew regenerates the performance dimension of the
// counter-based skew figures (F1 accuracy / F2 throughput).
func BenchmarkF1CounterSkew(b *testing.B) { benchSkewSweep(b, counterRoster) }

// BenchmarkF2CounterThroughput is F2's headline number at the paper's
// default skew.
func BenchmarkF2CounterThroughput(b *testing.B) {
	stream := benchStream(b, 1.0)
	for _, algo := range counterRoster {
		b.Run(algo, func(b *testing.B) { benchUpdates(b, algo, benchPhi, stream) })
	}
}

// benchPhiSweep is the shared skeleton of the φ figures.
func benchPhiSweep(b *testing.B, roster []string, stream []Item) {
	for _, phi := range []float64{0.0001, 0.001, 0.01} {
		for _, algo := range roster {
			b.Run(fmt.Sprintf("%s/phi=%g", algo, phi), func(b *testing.B) {
				benchUpdates(b, algo, phi, stream)
			})
		}
	}
}

// BenchmarkF3CounterPhi regenerates the counter-based φ sweep (F3).
func BenchmarkF3CounterPhi(b *testing.B) { benchPhiSweep(b, counterRoster, benchStream(b, 1.0)) }

// BenchmarkF4CounterHTTP regenerates the counter-based HTTP-trace figure.
func BenchmarkF4CounterHTTP(b *testing.B) {
	stream := benchHTTPStream(b)
	for _, algo := range counterRoster {
		b.Run(algo, func(b *testing.B) { benchUpdates(b, algo, benchPhi, stream) })
	}
}

// BenchmarkF5CounterUDP regenerates the counter-based UDP-trace figure.
func BenchmarkF5CounterUDP(b *testing.B) {
	stream := benchUDPStream(b)
	for _, algo := range counterRoster {
		b.Run(algo, func(b *testing.B) { benchUpdates(b, algo, benchPhi, stream) })
	}
}

// BenchmarkF6SketchSkew regenerates the sketch skew figures (F6/F7).
func BenchmarkF6SketchSkew(b *testing.B) { benchSkewSweep(b, sketchRoster) }

// BenchmarkF7SketchThroughput is F7's headline number at default skew.
func BenchmarkF7SketchThroughput(b *testing.B) {
	stream := benchStream(b, 1.0)
	for _, algo := range sketchRoster {
		b.Run(algo, func(b *testing.B) { benchUpdates(b, algo, benchPhi, stream) })
	}
}

// BenchmarkF8SketchPhi regenerates the sketch φ sweep (F8).
func BenchmarkF8SketchPhi(b *testing.B) { benchPhiSweep(b, sketchRoster, benchStream(b, 1.0)) }

// BenchmarkF9SketchHTTP regenerates the sketch HTTP-trace figure.
func BenchmarkF9SketchHTTP(b *testing.B) {
	stream := benchHTTPStream(b)
	for _, algo := range sketchRoster {
		b.Run(algo, func(b *testing.B) { benchUpdates(b, algo, benchPhi, stream) })
	}
}

// BenchmarkF10Space reports the space column across the roster and φ
// values (bytes metric; ns/op is incidental).
func BenchmarkF10Space(b *testing.B) {
	stream := benchStream(b, 1.0)
	for _, phi := range []float64{0.0001, 0.001, 0.01} {
		for _, algo := range Algorithms() {
			b.Run(fmt.Sprintf("%s/phi=%g", algo, phi), func(b *testing.B) {
				s := MustNew(algo, phi, benchSeed)
				for _, it := range stream {
					s.Update(it, 1)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = s.Bytes()
				}
				b.ReportMetric(float64(s.Bytes()), "bytes")
			})
		}
	}
}

// BenchmarkF11Depth is the CMH depth ablation under a fixed counter
// budget.
func BenchmarkF11Depth(b *testing.B) {
	stream := benchStream(b, 1.0)
	budget := 8 * int(2/benchPhi)
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("d=%d", depth), func(b *testing.B) {
			h, err := sketches.NewCountMinHierarchy(sketches.HierarchyConfig{
				Depth: depth, Width: budget / depth, Bits: 8, Seed: benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Update(core.Item(stream[i%len(stream)]), 1)
			}
		})
	}
}

// BenchmarkF12Scaling measures update cost as the live summary ages
// (fill level matters for counter-based eviction paths).
func BenchmarkF12Scaling(b *testing.B) {
	for _, warm := range []int{0, 1 << 14, 1 << 17} {
		stream := benchStream(b, 1.0)
		for _, algo := range []string{"SSH", "LC", "CMH"} {
			b.Run(fmt.Sprintf("%s/warm=%d", algo, warm), func(b *testing.B) {
				s := MustNew(algo, benchPhi, benchSeed)
				for i := 0; i < warm; i++ {
					s.Update(stream[i%len(stream)], 1)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Update(stream[i%len(stream)], 1)
				}
			})
		}
	}
}

// BenchmarkX1MaxChange measures the sketch-difference pipeline: two
// sketches, subtract, estimate.
func BenchmarkX1MaxChange(b *testing.B) {
	stream := benchStream(b, 1.0)
	for _, mk := range []struct {
		name string
		new  func() Summary
	}{
		{"CS", func() Summary { return NewCountSketch(5, 4096, benchSeed) }},
		{"CM", func() Summary { return NewCountMin(4, 4096, benchSeed) }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s1, s2 := mk.new(), mk.new()
				for _, it := range stream[:1<<14] {
					s1.Update(it, 1)
					s2.Update(it, 1)
				}
				if err := s2.(Subtractor).Subtract(s1); err != nil {
					b.Fatal(err)
				}
				_ = s2.Estimate(42)
			}
		})
	}
}

// BenchmarkX2Merge measures summary merge cost across mergeable types.
func BenchmarkX2Merge(b *testing.B) {
	stream := benchStream(b, 1.0)
	for _, algo := range []string{"F", "SSH", "CM", "CS", "CMH", "CGT"} {
		b.Run(algo, func(b *testing.B) {
			// Repeatedly merging the same operand measures steady-state
			// merge cost without per-iteration pair rebuilding (merging is
			// idempotent in structure, only counts accumulate).
			x, y := MustNew(algo, benchPhi, benchSeed), MustNew(algo, benchPhi, benchSeed)
			for i, it := range stream[:1<<14] {
				if i%2 == 0 {
					x.Update(it, 1)
				} else {
					y.Update(it, 1)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := x.(Merger).Merge(y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationConservative quantifies the update-cost premium of
// conservative Count-Min updates (the accuracy side is tested in
// internal/sketches).
func BenchmarkAblationConservative(b *testing.B) {
	stream := benchStream(b, 1.0)
	for _, mk := range []struct {
		name string
		new  func() Summary
	}{
		{"plain", func() Summary { return NewCountMin(4, 2048, benchSeed) }},
		{"conservative", func() Summary { return NewCountMinConservative(4, 2048, benchSeed) }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			s := mk.new()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(stream[i%len(stream)], 1)
			}
		})
	}
}

// BenchmarkAblationFSS compares Filtered Space-Saving against plain
// Space-Saving at equal k: the filter's extra hash per unmonitored
// arrival vs the avoided heap churn.
func BenchmarkAblationFSS(b *testing.B) {
	for _, z := range []float64{0.7, 1.2} {
		stream := benchStream(b, z)
		for _, mk := range []struct {
			name string
			new  func() Summary
		}{
			{"SSH", func() Summary { return NewSpaceSaving(2000) }},
			{"FSS", func() Summary { return NewFilteredSpaceSaving(2000, 0, benchSeed) }},
		} {
			b.Run(fmt.Sprintf("%s/z=%.1f", mk.name, z), func(b *testing.B) {
				s := mk.new()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Update(stream[i%len(stream)], 1)
				}
			})
		}
	}
}

// BenchmarkExtensionWindow measures the sliding-window wrapper's
// per-update overhead relative to a flat Space-Saving summary.
func BenchmarkExtensionWindow(b *testing.B) {
	stream := benchStream(b, 1.0)
	b.Run("flat-SSH", func(b *testing.B) {
		s := NewSpaceSaving(1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Update(stream[i%len(stream)], 1)
		}
	})
	b.Run("window", func(b *testing.B) {
		w, err := NewWindowed(1<<16, 8, 1000)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Update(stream[i%len(stream)], 1)
		}
	})
}

// BenchmarkExtensionQuantile measures GK insert cost.
func BenchmarkExtensionQuantile(b *testing.B) {
	for _, eps := range []float64{0.01, 0.001} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			g := NewQuantile(eps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Insert(float64(i % 9973))
			}
		})
	}
}

// BenchmarkExtensionRangeQuery measures dyadic range estimation.
func BenchmarkExtensionRangeQuery(b *testing.B) {
	h, err := NewCountMinHierarchy(HierarchyConfig{Depth: 4, Width: 2048, Bits: 8, UniverseBits: 32, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	stream := benchStream(b, 1.0)
	for _, it := range stream {
		h.Update(it&0xFFFFFFFF, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.RangeEstimate(uint64(i%1000)*1000, uint64(i%1000)*1000+99999); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMGOffset compares the offset-trick Misra–Gries
// (O(log k) amortized, worst-case bounded) against the textbook
// decrement-all implementation (Θ(k) per decrement pass, but each pass
// absorbs many arrivals, so its *amortized* cost is competitive).
// TestFrequentOffsetEquivalence proves the outputs identical; measured
// results show the textbook version on par or slightly ahead at this k —
// the offset trick buys worst-case latency (no Θ(k) stalls), not
// throughput, which is what the measurement demonstrates.
func BenchmarkAblationMGOffset(b *testing.B) {
	for _, z := range []float64{0.5, 1.5} {
		stream := benchStream(b, z)
		for _, mk := range []struct {
			name string
			new  func() Summary
		}{
			{"offset", func() Summary { return NewFrequent(2000) }},
			{"naive", func() Summary { return counters.NewFrequentNaive(2000) }},
		} {
			b.Run(fmt.Sprintf("%s/z=%.1f", mk.name, z), func(b *testing.B) {
				s := mk.new()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Update(stream[i%len(stream)], 1)
				}
			})
		}
	}
}

// BenchmarkAblationHash compares 2-wise and 4-wise polynomial hashing,
// the hash-strength choice the internal/hash package doc calls out. The
// bucket is a family row, as the sketches hold it, and every index is
// consumed: with a constant width and a discarded result the compiler
// folds the range reduction away, and the row would time the polynomial
// alone.
func BenchmarkAblationHash(b *testing.B) {
	for _, k := range []int{2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			h := hash.NewFamily(1, 4096, k, benchSeed, false).Buckets[0]
			sum := 0
			for i := 0; b.Loop(); i++ {
				sum += h.Hash(uint64(i))
			}
			hashSink = sum
		})
	}
}

var hashSink int

// BenchmarkAblationHierarchyBits sweeps the hierarchy branching factor,
// the CMH query/update trade-off.
func BenchmarkAblationHierarchyBits(b *testing.B) {
	stream := benchStream(b, 1.0)
	for _, bits := range []uint{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			h, err := sketches.NewCountMinHierarchy(sketches.HierarchyConfig{
				Depth: 4, Width: 2048, Bits: bits, Seed: benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Update(core.Item(stream[i%len(stream)]), 1)
			}
		})
	}
}

// BenchmarkSerialization measures encode/decode round-trip cost for the
// wire formats.
func BenchmarkSerialization(b *testing.B) {
	stream := benchStream(b, 1.0)
	cm := NewCountMin(4, 2048, benchSeed)
	ss := NewSpaceSaving(1000)
	for _, it := range stream[:1<<14] {
		cm.Update(it, 1)
		ss.Update(it, 1)
	}
	b.Run("CM/encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cm.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	blob, _ := cm.MarshalBinary()
	b.Run("CM/decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SSH/encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ss.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	sblob, _ := ss.MarshalBinary()
	b.Run("SSH/decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(sblob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInstrumentedIngest is benchBatchUpdates with the serving
// layer's per-batch observability attached — the log₂ histogram
// observations and counter adds freqd's ingest loop performs per batch
// (internal/serve.handleIngest). The delta against BenchmarkUpdateBatch
// on the same algorithm is the whole cost of the metrics plane on the
// ingest hot path; the CI gate holds it within the ns/op threshold of
// the uninstrumented seeds.
func BenchmarkInstrumentedIngest(b *testing.B) {
	stream := benchStream(b, 1.0)
	for _, algo := range []string{"SSH", "CM"} {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			s := MustNew(algo, benchPhi, benchSeed)
			reg := obs.NewRegistry()
			set := obs.NewSet(reg, "freq")
			batchH := reg.Histogram("freq_ingest_batch_items",
				"Items per ingest batch.", obs.SizeOpts())
			applyH := reg.Histogram("freq_ingest_apply_seconds",
				"Summary apply latency per ingest batch.", obs.LatencyOpts())
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for done < b.N {
				off := done % len(stream)
				n := DefaultBatchSize
				if n > b.N-done {
					n = b.N - done
				}
				if n > len(stream)-off {
					n = len(stream) - off
				}
				t0 := time.Now()
				UpdateAll(s, stream[off:off+n])
				d := time.Since(t0)
				batchH.Observe(int64(n))
				applyH.Observe(int64(d))
				set.Add("ingest.items", int64(n))
				done += n
			}
			b.StopTimer()
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(1e6/perOp, "upd/ms")
			}
		})
	}
}
