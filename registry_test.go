package streamfreq

import (
	"math"
	"strings"
	"testing"
)

// TestSupportedMagics pins the wire-format roster: every magic the
// decoders table dispatches on, sorted.
func TestSupportedMagics(t *testing.T) {
	got := strings.Join(SupportedMagics(), " ")
	want := "CG01 CM01 CS01 FQ01 FQ02 GK01 HI01 LC01 LC02 SL01 SL02 SS01 SS02 TK01 WN01"
	if got != want {
		t.Fatalf("SupportedMagics() = %q, want %q", got, want)
	}
}

// TestDecodeErrorPath is a table-driven check of Decode's rejection
// diagnostics: unknown magics are rendered as hex (they are arbitrary —
// possibly non-printable — bytes) and the error names the supported
// formats, so a user holding a corrupt or foreign blob can tell which
// failure they have from the message alone.
func TestDecodeErrorPath(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want []string // substrings the error must contain
	}{
		{
			name: "empty",
			data: nil,
			want: []string{"too short", "0 bytes"},
		},
		{
			name: "three bytes",
			data: []byte("CM0"),
			want: []string{"too short", "3 bytes"},
		},
		{
			name: "printable unknown magic",
			data: []byte("NOPE-not-a-summary"),
			want: []string{"unknown blob magic", "0x4e4f5045", "CM01", "SS01", "LC01"},
		},
		{
			name: "non-printable unknown magic",
			data: []byte{0x00, 0xde, 0xad, 0xbe, 0xef, 0x01},
			want: []string{"unknown blob magic", "0x00deadbe", "supported:"},
		},
		{
			name: "stream-file magic is not a summary blob",
			data: []byte("SFSTRM01"),
			want: []string{"unknown blob magic", "0x53465354"},
		},
		{
			name: "lowercased known magic",
			data: []byte("cm01xxxxxxxx"),
			want: []string{"unknown blob magic", "0x636d3031"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Decode(tc.data)
			if err == nil {
				t.Fatalf("Decode(%q) succeeded (%T), want error", tc.data, s)
			}
			for _, sub := range tc.want {
				if !strings.Contains(err.Error(), sub) {
					t.Fatalf("Decode(%q) error %q does not mention %q", tc.data, err, sub)
				}
			}
		})
	}
}

// TestDecodeStillDispatchesKnownMagics guards the refactor from a switch
// to a decoder table: a valid blob of each family round-trips, and an
// SS01 blob, which no encoder writes any more, still decodes.
func TestDecodeStillDispatchesKnownMagics(t *testing.T) {
	ss01, err := Decode(counterBlob("SS01", []uint64{8, 3, 1}, 5, 3, 0)) // k, n, entries; item, count, err
	if err != nil {
		t.Fatalf("SS01 blob: %v", err)
	}
	if ss01.Estimate(5) != 3 {
		t.Fatalf("SS01 blob decoded Estimate(5) = %d, want 3", ss01.Estimate(5))
	}
	sources := map[string]Summary{
		"SS02": NewSpaceSaving(8),
		"CM01": NewCountMin(2, 32, 1),
	}
	for magic, s := range sources {
		s.Update(5, 3)
		blob, err := s.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(blob[:4]) != magic {
			t.Fatalf("%s: blob magic is %q", s.Name(), blob[:4])
		}
		dec, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if dec.Estimate(5) != 3 {
			t.Fatalf("%s: decoded Estimate(5) = %d, want 3", s.Name(), dec.Estimate(5))
		}
	}
}

// TestNewRefusesWhatItsDecoderRefuses: every registry factory returns an
// error, never a clamp or a panic, for a φ whose structure its decoder
// would refuse. At φ = 1e-300, 2/φ overflows an int, which the sketch
// factories clamped to width 8, and Lossy Counting's bucket width
// ⌈1/ε⌉ overflowed to −2^63, so it never pruned. CGT's 65-counter
// buckets at depth 4 fit the 2^28-counter bound up to width 1,032,444
// (φ ≥ about 1.94e-6), so φ = 1e-6's 520,000,000 counters are refused.
// Lossy Counting's ε = φ/2 constructs, and round-trips, down to the
// smallest φ whose doubled budget fits counters.MaxBudget.
func TestNewRefusesWhatItsDecoderRefuses(t *testing.T) {
	for _, name := range Algorithms() {
		if s, err := New(name, 1e-300, 1); err == nil {
			t.Fatalf("%s at φ = 1e-300 built %d bytes", name, s.Bytes())
		}
	}
	for _, phi := range []float64{1e-6, 2 / 1_032_445.5} {
		if _, err := New("CGT", phi, 1); err == nil {
			t.Errorf("CGT at φ = %g built %d counters a row", phi, int(2/phi))
		}
	}
	edge := math.Nextafter(1.0/(1<<21), 1) // ⌊1/φ⌋ + 1 = 2^21: a roster of 2^22
	for _, name := range []string{"LC", "LCD"} {
		if _, err := New(name, math.Nextafter(1.0/(1<<21), 0), 1); err == nil {
			t.Errorf("%s one φ past the edge accepted", name)
		}
		s, err := New(name, edge, 1)
		if err != nil {
			t.Fatalf("%s at the edge φ = %g: %v", name, edge, err)
		}
		s.Update(3, 2)
		if dec, err := Decode(marshal(t, name, s)); err != nil || dec.Estimate(3) != s.Estimate(3) {
			t.Errorf("%s at the edge φ does not round-trip: %v", name, err)
		}
	}
}
