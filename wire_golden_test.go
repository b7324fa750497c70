package streamfreq

import (
	"bytes"
	"testing"

	"streamfreq/internal/testutil"
	"streamfreq/internal/zipf"
)

// wireGoldenSummaries builds one small summary per registry wire format
// (and per variant a format encodes: LC and LCD, plain and conservative
// Count-Min, both hierarchies, Tracked over both sketches) and feeds
// each the same Zipf stream in uneven batches. Items stay below 256 so
// the 8-bit hierarchies and the 16-bit CGT take every one.
func wireGoldenSummaries(t *testing.T) []struct {
	name string
	s    Summary
} {
	t.Helper()
	hier := HierarchyConfig{Depth: 2, Width: 16, Bits: 4, UniverseBits: 8, Seed: 3}
	cmh, err := NewCountMinHierarchy(hier)
	if err != nil {
		t.Fatal(err)
	}
	csh, err := NewCountSketchHierarchy(hier)
	if err != nil {
		t.Fatal(err)
	}
	out := []struct {
		name string
		s    Summary
	}{
		{"FQ02", NewFrequent(8)},
		{"SS02", NewSpaceSaving(8)},
		{"LC02-LC", NewLossyCounting(0.1)},
		{"LC02-LCD", NewLossyCountingD(0.1)},
		{"SL02", NewSpaceSavingList(8)},
		{"CM01", NewCountMin(2, 16, 3)},
		{"CM01-conservative", NewCountMinConservative(2, 16, 3)},
		{"CS01", NewCountSketch(3, 16, 3)},
		{"CG01", NewCGT(2, 8, 16, 3)},
		{"HI01-CMH", cmh},
		{"HI01-CSH", csh},
		{"TK01-CM", NewTracked(NewCountMin(2, 16, 3), 8)},
		{"TK01-CS", NewTracked(NewCountSketch(3, 16, 3), 8)},
		{"GK01", NewQuantile(0.1)},
		{"WN01", mustWindowedSummary(24, 4, 5)},
	}
	g, err := zipf.NewGenerator(200, 1.1, 0x601D, false)
	if err != nil {
		t.Fatal(err)
	}
	stream := g.Stream(3_000)
	for _, e := range out {
		Replay(e.s, stream[:1000], 1)
		Replay(e.s, stream[1000:], 333)
	}
	return out
}

// TestWireGolden pins every registry wire format to the bytes recorded
// before the decoders moved onto internal/wire (SS02 and the WN01 that
// nests it to the bytes recorded when SS02 replaced SS01, and FQ02,
// LC02 and SL02 to those recorded when they replaced their 01
// formats), and checks that each golden decodes and re-encodes byte
// for byte. A round trip alone would pass a field moved on both the
// encode and the decode side; the golden does not. The 01 blobs
// earlier builds wrote, and the WN01 that nested SS01, must still
// decode, and re-encode to the current golden of the same summary.
func TestWireGolden(t *testing.T) {
	var got []testutil.Golden
	for _, e := range wireGoldenSummaries(t) {
		got = append(got, testutil.Golden{Name: e.name, Blob: marshal(t, e.name, e.s)})
	}
	current := map[string][]byte{}
	for _, w := range testutil.CheckGolden(t, "testdata/wire_golden.json", got) {
		current[w.Name] = w.Blob
		dec, err := Decode(w.Blob)
		if err != nil {
			t.Errorf("%s: golden does not decode: %v", w.Name, err)
			continue
		}
		if again := marshal(t, w.Name, dec); !bytes.Equal(again, w.Blob) {
			t.Errorf("%s: golden re-encodes to different bytes (%d vs %d)", w.Name, len(again), len(w.Blob))
		}
	}
	reencode := func(l testutil.Golden) ([]byte, error) {
		dec, err := Decode(l.Blob)
		if err != nil {
			return nil, err
		}
		return marshal(t, l.Name, dec), nil
	}
	testutil.CheckLegacyGolden(t, "testdata/wire_golden_ss01.json",
		map[string][]byte{"SS01": current["SS02"], "WN01": current["WN01"]}, reencode)
	testutil.CheckLegacyGolden(t, "testdata/wire_golden_01.json", map[string][]byte{
		"FQ01": current["FQ02"], "LC01-LC": current["LC02-LC"], "LC01-LCD": current["LC02-LCD"], "SL01": current["SL02"],
	}, reencode)
}
