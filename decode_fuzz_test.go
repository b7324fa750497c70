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
	magics := []string{"CM01", "CS01", "CG01", "HI01", "FQ01", "SS02", "SS01", "SL01", "LC01", "TK01", "WN01", "GK01"}
	for _, magic := range magics {
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
	// LC01 entries no Lossy Counting state holds (ε = 0.01, n = 1000,
	// so b = 10): a Δ of 2^63 − 1 and one of 500, past b − 1; a count
	// past n; and, at ε = 0.5 and n = 2^63 − 2, a count + Δ past int64.
	f.Add(lcBlob(0.01, 1, 1000, [3]int64{7, 1, math.MaxInt64}, [3]int64{9, 5, 500}))
	f.Add(lcBlob(0.01, 0, 1000, [3]int64{9, 1001, 0}))
	f.Add(lcBlob(0.5, 0, math.MaxInt64-1, [3]int64{3, math.MaxInt64 - 1, 1<<62 - 2}))
	// Entries no Space-Saving or Frequent state holds (k = 4, n = 10):
	// item 7 counted 2^62 times, which self-merges to −2^63; and n < 0.
	f.Add(counterBlob("SS01", 4, 10, 1, 7, 1<<62, 0))
	f.Add(counterBlob("SL01", 4, 10, 1, 7, 1<<62, 0))
	f.Add(counterBlob("FQ01", 4, 10, 0, 1, 7, 1<<62))
	f.Add(counterBlob("SS01", 4, 1<<63, 0))
	// The same in SS02, plus an error above its count, a repeated item,
	// a varint the blob cuts short, and more entries than the bytes left
	// hold at 10 bytes each.
	f.Add(ss02Blob(4, 10, 1, [3]uint64{7, 1 << 62, 0}))
	f.Add(ss02Blob(4, 1<<63, 0))
	f.Add(ss02Blob(4, 10, 1, [3]uint64{7, 5, 6}))
	f.Add(ss02Blob(4, 10, 2, [3]uint64{7, 5, 0}, [3]uint64{7, 5, 0}))
	cut := ss02Blob(4, 1<<20, 1, [3]uint64{7, 1 << 20, 0}) // 2^20 is a 3-byte varint
	f.Add(cut[:len(cut)-2])
	f.Add(ss02Blob(1<<22, 10, 1<<22, [3]uint64{7, 5, 0}))
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

// lcBlob writes an LC01 blob by hand: ε, the variant (0 LC, 1 LCD), n,
// then one (item, count, Δ) triple per entry.
func lcBlob(eps float64, variant uint64, n int64, entries ...[3]int64) []byte {
	out := binary.LittleEndian.AppendUint64([]byte("LC01"), math.Float64bits(eps))
	out = binary.LittleEndian.AppendUint64(out, variant)
	out = binary.LittleEndian.AppendUint64(out, uint64(n))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(entries)))
	for _, e := range entries {
		for _, v := range e {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
	}
	return out
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
// counter encodings (FQ01, SS01, LC01) alongside the sketch magics
// (CM01 — plain and conservative — CS01, CG01, HI01): for any ingest
// history, a snapshot's serialization decodes to a summary that answers
// exactly like the parent, and serializing the snapshot after the parent
// has moved on yields the same bytes as serializing it before — the wire
// form of snapshot immutability.
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
			// Advance the parent; the snapshot's wire form must not move.
			parent.Update(Item(7), 3)
			blob2, err := snap.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
			if err != nil {
				t.Fatalf("%s: re-marshal snapshot: %v", parent.Name(), err)
			}
			if len(blob2) != len(blob) {
				t.Fatalf("%s: snapshot blob changed size after parent update (%d → %d bytes)",
					parent.Name(), len(blob), len(blob2))
			}
			// Map-backed encoders (LC01) serialize entries in map order, so
			// compare decoded behaviour, not raw bytes.
			dec2, err := Decode(blob2)
			if err != nil {
				t.Fatalf("%s: decode re-marshaled blob: %v", parent.Name(), err)
			}
			for u := Item(0); u < 32; u++ {
				if a, b := dec2.Estimate(u), dec.Estimate(u); a != b {
					t.Fatalf("%s: snapshot drifted after parent update: Estimate(%d) %d → %d",
						parent.Name(), u, b, a)
				}
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
