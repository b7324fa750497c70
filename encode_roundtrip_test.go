package streamfreq

// Wire-format properties the durability layer stands on (internal/
// persist checkpoints are Encode blobs, and the crash-recovery tests
// compare states by their encodings):
//
//  1. determinism — identically-fed summaries marshal to identical
//     bytes, for every registry algorithm;
//  2. structural round-trip — Decode(Encode(s)) re-encodes to the same
//     bytes AND keeps behaving identically to s under further ingest,
//     exercised here for SL02, TK01 and WN01.

import (
	"bytes"
	"testing"

	"streamfreq/internal/zipf"
)

// roundTripStream is a modest zipf workload with heavy duplicate
// pressure, split into uneven batches like a real ingest schedule.
func roundTripStream(t testing.TB) [][]Item {
	t.Helper()
	g, err := zipf.NewGenerator(1<<12, 1.1, 0xC0FFEE, true)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stream(24_000)
	var batches [][]Item
	sizes := []int{1, 700, 4096, 33, 2048, 5000}
	for i := 0; len(s) > 0; i++ {
		n := sizes[i%len(sizes)]
		if n > len(s) {
			n = len(s)
		}
		batches = append(batches, s[:n])
		s = s[n:]
	}
	return batches
}

// mustWindowedSummary builds the windowed summary for the wall's extra
// cases; the geometry is static and valid, so errors are test bugs.
func mustWindowedSummary(size, blocks, k int) Summary {
	w, err := NewWindowed(size, blocks, k)
	if err != nil {
		panic(err)
	}
	return w
}

func marshal(t *testing.T, label string, s Summary) []byte {
	t.Helper()
	m, ok := s.(interface{ MarshalBinary() ([]byte, error) })
	if !ok {
		t.Fatalf("%s: %T has no MarshalBinary", label, s)
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: MarshalBinary: %v", label, err)
	}
	return blob
}

// TestEncodeDeterministicRegistry: two instances fed the same batch
// schedule marshal to byte-identical blobs, for every registry
// algorithm. This pins the canonical entry ordering (LC02 sorts its
// entries by item) and means "bit-identical via Encode" is a
// meaningful comparison.
func TestEncodeDeterministicRegistry(t *testing.T) {
	batches := roundTripStream(t)
	for _, algo := range Algorithms() {
		t.Run(algo, func(t *testing.T) {
			a := MustNew(algo, 0.005, 42)
			b := MustNew(algo, 0.005, 42)
			for _, batch := range batches {
				UpdateAll(a, batch)
				UpdateAll(b, batch)
			}
			if !bytes.Equal(marshal(t, algo, a), marshal(t, algo, b)) {
				t.Fatalf("%s: identically-fed summaries marshal to different bytes", algo)
			}
		})
	}
	// The windowed summary sits outside the factories roster (it is
	// provisioned by geometry, not φ alone), so its determinism leg is
	// pinned here explicitly with the same batch schedule.
	t.Run("Windowed", func(t *testing.T) {
		a := mustWindowedSummary(8192, 8, 201)
		b := mustWindowedSummary(8192, 8, 201)
		for _, batch := range batches {
			UpdateAll(a, batch)
			UpdateAll(b, batch)
		}
		if !bytes.Equal(marshal(t, "SSW", a), marshal(t, "SSW", b)) {
			t.Fatal("SSW: identically-fed windowed summaries marshal to different bytes")
		}
	})
	// The GK quantile summary is also a wire citizen outside the roster
	// (provisioned by ε, frequency semantics don't apply).
	t.Run("GK", func(t *testing.T) {
		a := NewQuantile(0.01)
		b := NewQuantile(0.01)
		for _, batch := range batches {
			UpdateAll(a, batch)
			UpdateAll(b, batch)
		}
		if !bytes.Equal(marshal(t, "GK", a), marshal(t, "GK", b)) {
			t.Fatal("GK: identically-fed quantile summaries marshal to different bytes")
		}
	})
}

// TestEncodeRoundTripNewFormats: the SL02, TK01, and WN01 formats
// decode to a summary that re-encodes byte-identically and stays in
// lockstep with the original through further ingest — the exact
// situation of a checkpoint restore that keeps consuming the stream.
// For the windowed summary the lockstep half is the expiring-block
// durability contract in miniature: the restored ring must keep
// rotating on the same boundaries the original does.
func TestEncodeRoundTripNewFormats(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Summary
	}{
		{"SSL", func() Summary { return NewSpaceSavingList(201) }},
		{"Tracked-CM", func() Summary { return NewTracked(NewCountMin(4, 512, 7), 128) }},
		{"Tracked-CS", func() Summary { return NewTracked(NewCountSketch(5, 512, 7), 128) }},
		{"Windowed", func() Summary { return mustWindowedSummary(8192, 8, 201) }},
		// GK01: the decode-then-continue leg is the recovery contract —
		// sinceCompress rides the wire so the restored compression
		// schedule stays in phase with uninterrupted ingest.
		{"GK", func() Summary { return NewQuantile(0.015) }},
	}
	batches := roundTripStream(t)
	half := len(batches) / 2
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.mk()
			for _, batch := range batches[:half] {
				UpdateAll(orig, batch)
			}
			blob := marshal(t, tc.name, orig)
			dec, err := Decode(blob)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got := marshal(t, tc.name, dec); !bytes.Equal(got, blob) {
				t.Fatalf("re-encode of decoded blob differs (%d vs %d bytes)", len(got), len(blob))
			}
			// The decoded summary must keep evolving exactly like the
			// original: same ingest → same bytes, N, and report.
			for _, batch := range batches[half:] {
				UpdateAll(orig, batch)
				UpdateAll(dec, batch)
			}
			if dec.N() != orig.N() {
				t.Fatalf("N diverged after restore: %d vs %d", dec.N(), orig.N())
			}
			if !bytes.Equal(marshal(t, tc.name, dec), marshal(t, tc.name, orig)) {
				t.Fatalf("decoded summary diverged from original under further ingest")
			}
		})
	}
}
