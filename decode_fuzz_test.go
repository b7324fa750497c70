package streamfreq

// Robustness of the wire-format decoders: arbitrary and mutated bytes
// must produce errors, never panics or runaway allocations. This is the
// failure-injection arm of the test plan; README "Durability and
// recovery" lists the wire formats it covers.

import (
	"bytes"
	"testing"
	"testing/quick"

	"streamfreq/internal/prng"
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
	magics := []string{"CM01", "CS01", "CG01", "HI01", "FQ01", "SS01", "SL01", "LC01", "TK01", "WN01", "GK01"}
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
