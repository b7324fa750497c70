package persist

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/sketches"
	"streamfreq/internal/zipf"
)

// benchBatches materializes a zipf stream as 4096-item batches, the
// serving daemon's ingest granularity.
func benchBatches(b *testing.B, n int) [][]core.Item {
	b.Helper()
	g, err := zipf.NewGenerator(1<<16, 1.1, 0xBE7C4, true)
	if err != nil {
		b.Fatal(err)
	}
	s := g.Stream(n)
	var out [][]core.Item
	for len(s) > 0 {
		k := core.DefaultBatchSize
		if k > len(s) {
			k = len(s)
		}
		out = append(out, s[:k])
		s = s[k:]
	}
	return out
}

// BenchmarkWALAppend measures the raw log-append cost per 4096-item
// batch under each fsync policy — the durability tax before any summary
// work. interval is the production default; always pays one fsync per
// op and bounds the worst case.
func BenchmarkWALAppend(b *testing.B) {
	batches := benchBatches(b, 1<<20)
	for _, policy := range []FsyncPolicy{FsyncNever, FsyncInterval, FsyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			st, err := Open(Options{Dir: b.TempDir(), Algo: "SSH", Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Recover(core.NewConcurrent(counters.NewSpaceSavingHeap(1001))); err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.SetBytes(int64(core.DefaultBatchSize * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.AppendBatch(batches[i%len(batches)])
			}
			b.StopTimer()
			if err := st.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkUpdateBatchWAL is the acceptance benchmark of the durability
// layer: batched SSH ingest through core.Concurrent with the WAL off,
// group-committed (interval, the default), and fsync-per-batch. Compare
// ns/op across the sub-benchmarks: the acceptance target is <10%
// overhead for wal-interval over nopersist.
func BenchmarkUpdateBatchWAL(b *testing.B) {
	batches := benchBatches(b, 1<<20)
	run := func(b *testing.B, wire func(*core.Concurrent)) {
		target := core.NewConcurrent(counters.NewSpaceSavingHeap(1001))
		if wire != nil {
			wire(target)
		}
		b.SetBytes(int64(core.DefaultBatchSize * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			target.UpdateBatch(batches[i%len(batches)])
		}
		b.StopTimer()
	}
	b.Run("nopersist", func(b *testing.B) { run(b, nil) })
	for _, policy := range []FsyncPolicy{FsyncInterval, FsyncAlways} {
		b.Run("wal-"+policy.String(), func(b *testing.B) {
			st, err := Open(Options{Dir: b.TempDir(), Algo: "SSH", Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			run(b, func(c *core.Concurrent) {
				if _, err := st.Recover(c); err != nil {
					b.Fatal(err)
				}
				c.PersistTo(st)
			})
			if err := st.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRecovery measures cold-start recovery of a directory holding
// a checkpoint plus a WAL tail (the restart-under-traffic path): one op
// is a full Open+Recover of ~256k logged items on top of a checkpointed
// summary.
func BenchmarkRecovery(b *testing.B) {
	// Build the pristine directory once.
	pristine := b.TempDir()
	opts := Options{Algo: "SSH", Fsync: FsyncNever, Decode: benchDecode}
	orig := core.NewConcurrent(counters.NewSpaceSavingHeap(1001))
	st, err := Open(optsWithDir(opts, pristine))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Recover(orig); err != nil {
		b.Fatal(err)
	}
	orig.PersistTo(st)
	batches := benchBatches(b, 1<<19)
	half := len(batches) / 2
	for _, bt := range batches[:half] {
		orig.UpdateBatch(bt)
	}
	if _, err := st.Checkpoint(orig); err != nil {
		b.Fatal(err)
	}
	for _, bt := range batches[half:] {
		orig.UpdateBatch(bt)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		copyDir(b, pristine, dir)
		b.StartTimer()
		st, err := Open(optsWithDir(opts, dir))
		if err != nil {
			b.Fatal(err)
		}
		stats, err := st.Recover(core.NewConcurrent(counters.NewSpaceSavingHeap(1001)))
		if err != nil {
			b.Fatal(err)
		}
		if stats.RecoveredN != orig.LiveN() {
			b.Fatalf("recovered n=%d, want %d", stats.RecoveredN, orig.LiveN())
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}

// BenchmarkWALReplayCMH measures WAL-only recovery into a Count-Min
// hierarchy at φ = 0.001, the restart of a durable CMH node that
// crashed before its first checkpoint: one op is an Open+Recover of 512
// logged 8192-item Zipf(1.1, 2²⁰) requests, written as the daemon
// writes them (one 4096-item record per batch). It reads the log from
// disk, so its CI row is reported but not gated, like BenchmarkRecovery.
func BenchmarkWALReplayCMH(b *testing.B) {
	const requests, requestItems = 512, 8192
	newCMH := func() *core.Concurrent {
		h, err := sketches.NewCountMinHierarchy(sketches.HierarchyConfig{Depth: 4, Width: 2000, Bits: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return core.NewConcurrent(h)
	}
	pristine := b.TempDir()
	opts := Options{Algo: "CMH", Fsync: FsyncNever}
	st, err := Open(optsWithDir(opts, pristine))
	if err != nil {
		b.Fatal(err)
	}
	orig := newCMH()
	if _, err := st.Recover(orig); err != nil {
		b.Fatal(err)
	}
	orig.PersistTo(st)
	g, err := zipf.NewGenerator(1<<20, 1.1, 0xBE7C4, true)
	if err != nil {
		b.Fatal(err)
	}
	body := make([]core.Item, requestItems)
	for i := 0; i < requests; i++ {
		g.Fill(body)
		for off := 0; off < len(body); off += core.DefaultBatchSize {
			orig.UpdateBatch(body[off : off+core.DefaultBatchSize])
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		copyDir(b, pristine, dir)
		b.StartTimer()
		st, err := Open(optsWithDir(opts, dir))
		if err != nil {
			b.Fatal(err)
		}
		stats, err := st.Recover(newCMH())
		if err != nil {
			b.Fatal(err)
		}
		if stats.CheckpointN != 0 || stats.RecoveredN != requests*requestItems {
			b.Fatalf("recovered n=%d from checkpoint n=%d, want %d from the log alone",
				stats.RecoveredN, stats.CheckpointN, requests*requestItems)
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}

func benchDecode(blob []byte) (core.Summary, error) {
	return counters.DecodeSpaceSavingHeap(blob)
}

func optsWithDir(o Options, dir string) Options {
	o.Dir = dir
	return o
}

func copyDir(b *testing.B, from, to string) {
	b.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		src, err := os.Open(filepath.Join(from, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		dst, err := os.Create(filepath.Join(to, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(dst, src); err != nil {
			b.Fatal(err)
		}
		src.Close()
		if err := dst.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
