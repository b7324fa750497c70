package streamfreq

// Robustness of the wire-format decoders: arbitrary and mutated bytes
// must produce errors, never panics or runaway allocations. This is the
// failure-injection arm of the test plan; README "Durability and
// recovery" lists the wire formats it covers.

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"streamfreq/internal/prng"
	"streamfreq/internal/sketches"
)

// decodeNeverPanics drives Decode with hostile input.
func decodeNeverPanics(t *testing.T, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Decode panicked on %d bytes: %v", len(data), r)
		}
	}()
	_, _ = Decode(data)
}

func TestDecodeRandomBytesNeverPanic(t *testing.T) {
	f := func(data []byte) bool {
		decodeNeverPanics(t, data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRandomBytesWithValidMagics(t *testing.T) {
	// Random payloads behind each valid magic: exercises every decoder's
	// header validation, not just the magic dispatch.
	rng := prng.New(0xFADE)
	for _, magic := range SupportedMagics() {
		for trial := 0; trial < 300; trial++ {
			size := int(rng.Uint64n(256))
			data := make([]byte, 4+size)
			copy(data, magic)
			for i := 4; i < len(data); i++ {
				data[i] = byte(rng.Uint64())
			}
			decodeNeverPanics(t, data)
		}
	}
}

func TestDecodeBitFlippedBlobs(t *testing.T) {
	// Take real blobs and flip every byte position in turn: decoders must
	// reject or produce a structurally valid summary, never panic.
	sources := []Summary{
		NewFrequent(4),
		NewSpaceSaving(4),
		NewSpaceSavingList(4),
		NewLossyCounting(0.1),
		NewCountMin(2, 16, 3),
		NewCountSketch(3, 16, 3),
		NewCGT(2, 8, 16, 3),
		NewTracked(NewCountMin(2, 16, 3), 8),
		mustWindowedSummary(8, 2, 3),
		NewQuantile(0.1),
	}
	for _, s := range sources {
		s.Update(1, 5)
		s.Update(2, 2)
		blob, err := s.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < len(blob); pos++ {
			mut := append([]byte(nil), blob...)
			mut[pos] ^= 0xFF
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic with byte %d flipped: %v", s.Name(), pos, r)
					}
				}()
				if dec, err := Decode(mut); err == nil && dec != nil {
					// A surviving decode must still behave like a summary.
					_ = dec.Estimate(1)
					_ = dec.Bytes()
					_ = dec.Query(1)
				}
			}()
		}
	}
}

// TestDecodeHostileHierarchyHeaders: HI01 headers no encoder writes
// must come back as errors. A level length of 2^64−16, read as a
// signed length, wraps negative and passes a naive "fits in the rest"
// check (a 52-byte blob: a CMH header with one level, then that
// length). A level count the universe and branching bits do not imply
// decodes, then sends the frontier walk over 2^44 top-level prefixes.
func TestDecodeHostileHierarchyHeaders(t *testing.T) {
	wrapped := []byte("HI01")
	for _, v := range []uint64{0, 4, 8, 0, 1, 1<<64 - 16} { // CMH, bits, universe bits, n, levels, level length
		wrapped = binary.LittleEndian.AppendUint64(wrapped, v)
	}
	twoLevels, err := mustHierarchy(NewCountSketchHierarchy).(*sketches.Hierarchical).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(twoLevels[4+16:], 48) // universe bits 8 → 48: twelve levels' worth
	for name, blob := range map[string][]byte{"wrapped level length": wrapped, "level count off geometry": twoLevels} {
		decodeNeverPanics(t, blob)
		if _, err := Decode(blob); err == nil {
			t.Errorf("%s: hierarchy blob decoded", name)
		}
	}
}

// FuzzDecode is the native-fuzzing arm of the hostile-input property:
// whatever bytes arrive, Decode errors or returns a structurally valid
// summary — never a panic. The seed corpus covers every supported magic
// with both valid and garbage payloads.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("CM0"))
	f.Add([]byte("NOPE-not-a-summary"))
	for _, magic := range SupportedMagics() {
		f.Add(append([]byte(magic), 0xde, 0xad, 0xbe, 0xef))
	}
	seedSources := []Summary{
		NewFrequent(4),
		NewSpaceSaving(4),
		NewSpaceSavingList(4),
		NewLossyCounting(0.1),
		NewCountMin(2, 16, 3),
		NewCountSketch(3, 16, 3),
		NewCGT(2, 8, 16, 3),
		NewTracked(NewCountMin(2, 16, 3), 8),
		mustWindowedSummary(8, 2, 3),
		NewQuantile(0.1),
		mustHierarchy(NewCountMinHierarchy),
		mustHierarchy(NewCountSketchHierarchy),
	}
	for _, s := range seedSources {
		s.Update(1, 5)
		s.Update(2, 2)
		blob, err := s.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	// Hand-built counter blobs no state reaches, in every counter magic
	// (k = 4, n = 10; Lossy Counting at ε = 0.5, so b = 5): a repeated
	// item, item 7 counted 2^62 times (which self-merges to −2^63), an n
	// of 2^63 (a negative n in the 01 formats), a blob cut inside an
	// entry, and more entries than the bytes left hold.
	for _, magic := range []string{"FQ02", "SS02", "LC02", "SL02", "FQ01", "SS01", "LC01", "SL01"} {
		cut := counterBlob(magic, counterHead(magic, 1<<20, 1), 7, 1<<20, 0) // 2^20 is a 3-byte varint
		f.Add(counterBlob(magic, counterHead(magic, 10, 2), 7, 3, 0, 7, 5, 0))
		f.Add(counterBlob(magic, counterHead(magic, 10, 1), 7, 1<<62, 0))
		f.Add(counterBlob(magic, counterHead(magic, 1<<63, 0)))
		f.Add(cut[:len(cut)-2])
		f.Add(counterBlob(magic, counterHead(magic, 10, 3), 7, 3, 0, 8, 5, 0))
	}
	// Each summary's own rules: an SS02 err above its count; SL02 counts
	// out of order; LC entries with a Δ of 2^63 − 1, one past b − 1 and
	// a count + Δ past int64 (ε = 0.01 and n = 1000, so b = 10; then
	// ε = 0.5 and n = 2^63 − 2); an LC01 n of −1; and a Frequent
	// decrement total past n/(k+1), which Query adds to every estimate:
	// −2^62 and 2^63 − 11 in a k = 4 FQ01 blob whose item 1 holds 91 of
	// n = 138.
	f.Add(counterBlob("SS02", []uint64{4, 10, 1}, 7, 5, 6))
	f.Add(counterBlob("SL02", []uint64{4, 10, 2}, 7, 5, 0, 8, 3, 0))
	f.Add(counterBlob("LC02", []uint64{math.Float64bits(0.01), 1, 1000, 2}, 7, 1, math.MaxInt64, 9, 5, 500))
	f.Add(counterBlob("LC02", []uint64{math.Float64bits(0.01), 1, 1000, 1}, 9, 5, 10))
	f.Add(counterBlob("LC02", []uint64{math.Float64bits(0.5), 0, math.MaxInt64 - 1, 1}, 3, math.MaxInt64-1, 1<<62-2))
	f.Add(counterBlob("LC01", []uint64{math.Float64bits(0.1), 0, 1<<64 - 1, 0}))
	f.Add(counterBlob("FQ01", []uint64{4, 138, 1<<64 - 1<<62, 3}, 1, 91, 0, 2, 1, 0, 3, 1, 0))
	f.Add(counterBlob("FQ01", []uint64{4, 138, 1<<63 - 11, 3}, 1, 91, 0, 2, 1, 0, 3, 1, 0))
	f.Add(counterBlob("SS02", []uint64{1 << 22, 10, 1 << 22}, 7, 5, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %d bytes: %v", len(data), r)
			}
		}()
		dec, err := Decode(data)
		if err == nil && dec != nil {
			_ = dec.Estimate(1)
			_ = dec.Bytes()
			_ = dec.Query(1)
			_ = dec.N()
		}
	})
}

// mustHierarchy builds a small hierarchy for the fuzz seeds: two 4-bit
// levels over an 8-bit universe.
func mustHierarchy(build func(HierarchyConfig) (*sketches.Hierarchical, error)) Summary {
	h, err := build(HierarchyConfig{Depth: 2, Width: 8, Bits: 4, UniverseBits: 8, Seed: 3})
	if err != nil {
		panic(err)
	}
	return h
}

// fuzzItems turns fuzz bytes into a small-universe item stream: each
// byte contributes one arrival from a 32-item universe, forcing heavy
// collision/eviction traffic through every summary.
func fuzzItems(data []byte) []Item {
	if len(data) > 2048 {
		data = data[:2048]
	}
	items := make([]Item, len(data))
	for i, b := range data {
		items[i] = Item(b % 32)
	}
	return items
}

// FuzzSnapshotRoundTrip is the Clone→Encode→Decode property over the
// counter encodings (FQ02, SS02, LC02, SL02) alongside the sketch
// magics (CM01 — plain and conservative — CS01, CG01, HI01) and TK01,
// WN01 and GK01: for any ingest history, a snapshot's serialization
// decodes to a summary that answers exactly like the parent and
// re-encodes to the same bytes, and serializing the snapshot after the
// parent has moved on yields the same bytes as serializing it before —
// the wire form of snapshot immutability.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add([]byte("abacabadabacaba"))
	f.Add(bytes.Repeat([]byte{1, 1, 2, 3, 5, 8, 13, 21}, 40))
	seed := make([]byte, 257)
	for i := range seed {
		seed[i] = byte(i * 31)
	}
	f.Add(seed)
	// Streams built for the counter formats' rarer fields: a count past
	// 127 (a two-byte varint), then heavy items followed by 32 distinct
	// ones, which give Frequent a decrement total, Lossy Counting Δs
	// from items first seen in later buckets, and Space-Saving errors
	// shared by the Stream-Summary's buckets.
	f.Add(bytes.Repeat([]byte{3}, 300))
	tail := make([]byte, 32)
	for i := range tail {
		tail[i] = byte(i)
	}
	f.Add(append(bytes.Repeat([]byte{1, 2, 1, 4}, 60), tail...))

	f.Fuzz(func(t *testing.T, data []byte) {
		items := fuzzItems(data)
		builders := []func() Summary{
			func() Summary { return NewFrequent(5) },
			func() Summary { return NewSpaceSaving(5) },
			func() Summary { return NewSpaceSavingList(5) },
			func() Summary { return NewTracked(NewCountMin(2, 16, 3), 8) },
			func() Summary { return NewLossyCounting(0.1) },
			func() Summary { return NewLossyCountingD(0.1) },
			func() Summary { return NewCountMin(2, 16, 3) },
			func() Summary { return NewCountMinConservative(2, 16, 3) },
			func() Summary { return NewCountSketch(3, 16, 3) },
			func() Summary { return NewCGT(2, 8, 8, 3) },
			func() Summary {
				h, err := NewCountMinHierarchy(HierarchyConfig{Depth: 2, Width: 16, Bits: 4, UniverseBits: 8, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				return h
			},
			// The windowed summary (WN01): tiny blocks force rotations
			// through every fuzz stream, so the snapshotted ring exercises
			// head positions, partial fills, and fully-wrapped rings.
			func() Summary { return mustWindowedSummary(24, 4, 5) },
			// The quantile summary (GK01): a coarse ε keeps the tuple list
			// compressing through every fuzz stream.
			func() Summary { return NewQuantile(0.2) },
		}
		for _, mk := range builders {
			parent := mk()
			for _, it := range items {
				parent.Update(it, 1)
			}
			snap := parent.(Snapshotter).Snapshot()
			blob, err := snap.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
			if err != nil {
				t.Fatalf("%s: marshal snapshot: %v", parent.Name(), err)
			}
			dec, err := Decode(blob)
			if err != nil {
				t.Fatalf("%s: decode snapshot blob: %v", parent.Name(), err)
			}
			if dec.N() != parent.N() {
				t.Fatalf("%s: decoded N = %d, parent %d", parent.Name(), dec.N(), parent.N())
			}
			for u := Item(0); u < 32; u++ {
				if de, pe := dec.Estimate(u), parent.Estimate(u); de != pe {
					t.Fatalf("%s: decoded Estimate(%d) = %d, parent %d", parent.Name(), u, de, pe)
				}
			}
			if again, err := dec.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary(); err != nil || !bytes.Equal(again, blob) {
				t.Fatalf("%s: decoded snapshot re-encodes to different bytes (%v)", parent.Name(), err)
			}
			// Advance the parent; the snapshot's wire form must not move.
			parent.Update(Item(7), 3)
			blob2, err := snap.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
			if err != nil {
				t.Fatalf("%s: re-marshal snapshot: %v", parent.Name(), err)
			}
			if !bytes.Equal(blob2, blob) {
				t.Fatalf("%s: snapshot blob changed after parent update (%d → %d bytes)",
					parent.Name(), len(blob), len(blob2))
			}
		}
	})
}

func TestDecodeTruncationsNeverPanic(t *testing.T) {
	h, err := NewCountMinHierarchy(HierarchyConfig{Depth: 2, Width: 32, Bits: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	h.Update(9, 4)
	blob, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(blob); cut++ {
		decodeNeverPanics(t, blob[:cut])
	}
}
