package sketches

import (
	"bytes"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/hash"
	"streamfreq/internal/prng"
)

func sketchBatchStream(n int) []core.Item {
	rng := prng.New(0x5EEC)
	out := make([]core.Item, n)
	for i := range out {
		out[i] = core.Item(rng.Uint64n(1 << 18))
	}
	return out
}

// sketchBatchInputs are the two ends of a collapse: a duplicate-heavy
// batch (256 distinct items, so a collapse merges almost every arrival)
// and a batch without repeats (every arrival distinct, so it merges
// none).
func sketchBatchInputs() map[string][]core.Item {
	rng := prng.New(0x5EED)
	dups := make([]core.Item, 20_000)
	for i := range dups {
		dups[i] = core.Item(rng.Uint64n(1 << 8))
	}
	distinct := make([]core.Item, 20_000)
	for i := range distinct {
		distinct[i] = core.Item(hash.Mix64(uint64(i)))
	}
	return map[string][]core.Item{"duplicate-heavy": dups, "no-repeats": distinct}
}

// batchSketch is what the batch exactness checks need of a flat sketch.
type batchSketch interface {
	core.Summary
	core.BatchUpdater
	core.PairUpdater
	MarshalBinary() ([]byte, error)
}

// checkBatchBytes ingests each input arrival by arrival, as one batch,
// and as the batch's collapsed pairs through the pair path (what Tracked
// and the hierarchies feed a sketch), and requires the three sketches'
// encodings to match byte for byte: every counter, N and the estimator
// mode.
func checkBatchBytes(t *testing.T, mk func() batchSketch) {
	t.Helper()
	for name, items := range sketchBatchInputs() {
		scalar, batched, paired := mk(), mk(), mk()
		for _, it := range items {
			scalar.Update(it, 1)
		}
		batched.UpdateBatch(items)
		core.Collapse(items, paired.UpdatePairs)
		want, err := scalar.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for path, s := range map[string]batchSketch{"batched": batched, "paired": paired} {
			got, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %s %s is not bit-identical to scalar ingest", name, path, scalar.Name())
			}
		}
	}
}

// TestCountMinBatchExact: the sketch is linear, so the batch kernel and
// the weighted row updates of collapsed pairs must land every counter
// exactly where the scalar path does.
func TestCountMinBatchExact(t *testing.T) {
	checkBatchBytes(t, func() batchSketch {
		return NewCountMin(4, 512, 99)
	})
}

// TestCountMinConservativeBatchExact: conservative update is not linear,
// so its batch path retains per-arrival processing, and a tracker over it
// feeds it the whole batch that way before admitting the batch's
// distinct items. Either way the counters must match the scalar
// conservative run bit for bit.
func TestCountMinConservativeBatchExact(t *testing.T) {
	// Narrow rows, so items collide in every row and any reordering of
	// the arrivals shows in the counters.
	for name, items := range sketchBatchInputs() {
		scalar := NewCountMinConservative(4, 64, 99)
		for _, it := range items {
			scalar.Update(it, 1)
		}
		tracked := counters.NewTracked(NewCountMinConservative(4, 64, 99), 64)
		core.UpdateBatches(tracked, items, 777)
		a, err := scalar.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		b, err := tracked.Inner().(*CountMin).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: a tracked conservative Count-Min's batched counters are not bit-identical to scalar ingest", name)
		}
	}

	stream := sketchBatchStream(20_000)
	scalar := NewCountMinConservative(4, 512, 99)
	for _, it := range stream {
		scalar.Update(it, 1)
	}
	batched := NewCountMinConservative(4, 512, 99)
	core.UpdateBatches(batched, stream, 777)
	if scalar.N() != batched.N() {
		t.Fatalf("N %d vs %d", batched.N(), scalar.N())
	}
	for probe := core.Item(0); probe < 4096; probe++ {
		if s, b := scalar.Estimate(probe), batched.Estimate(probe); s != b {
			t.Fatalf("Estimate(%d): batched %d, scalar %d", probe, b, s)
		}
	}
}

// TestCountSketchBatchExact mirrors the Count-Min check for the signed
// estimator.
func TestCountSketchBatchExact(t *testing.T) {
	checkBatchBytes(t, func() batchSketch {
		return NewCountSketch(5, 512, 99)
	})
}

// TestBatchedSketchStillMerges: batch ingest must leave the sketch as
// mergeable/subtractable as scalar ingest does (same rows, same n, no
// mode flags flipped).
func TestBatchedSketchStillMerges(t *testing.T) {
	stream := sketchBatchStream(10_000)
	a := NewCountMin(4, 256, 5)
	b := NewCountMin(4, 256, 5)
	core.UpdateBatches(a, stream[:5_000], 512)
	core.UpdateBatches(b, stream[5_000:], 512)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	whole := NewCountMin(4, 256, 5)
	core.UpdateBatches(whole, stream, 512)
	for probe := core.Item(0); probe < 1024; probe++ {
		if m, w := a.Estimate(probe), whole.Estimate(probe); m != w {
			t.Fatalf("Estimate(%d): merged %d, whole-stream %d", probe, m, w)
		}
	}
}
