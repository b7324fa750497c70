package counters

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/zipf"
)

func TestFrequentRoundTrip(t *testing.T) {
	f := NewFrequent(32)
	g, _ := zipf.NewGenerator(500, 1.1, 3, true)
	for i := 0; i < 20000; i++ {
		f.Update(g.Next(), 1)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrequent(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != f.N() || got.k != f.k || got.MaxError() != f.MaxError() {
		t.Fatal("metadata lost in round trip")
	}
	for r := 1; r <= 500; r++ {
		it := g.ItemOfRank(r)
		if got.Estimate(it) != f.Estimate(it) {
			t.Fatalf("estimate mismatch for item %d", it)
		}
	}
	// Decoded summary must continue to work.
	got.Update(g.ItemOfRank(1), 5)
	if got.Estimate(g.ItemOfRank(1)) != f.Estimate(g.ItemOfRank(1))+5 {
		t.Error("decoded summary broken after further updates")
	}
}

// TestSpaceSavingRoundTrip also checks that a blob is allocated at
// exactly its length: an evicted tenant keeps it as its whole state.
func TestSpaceSavingRoundTrip(t *testing.T) {
	if blob, _ := NewSpaceSavingHeap(40).MarshalBinary(); cap(blob) != len(blob) {
		t.Fatalf("empty summary's %d-byte blob has capacity %d", len(blob), cap(blob))
	}
	s := NewSpaceSavingHeap(40)
	g, _ := zipf.NewGenerator(600, 1.2, 7, true)
	for i := 0; i < 30000; i++ {
		s.Update(g.Next(), 1)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if cap(blob) != len(blob) {
		t.Fatalf("%d-byte blob has capacity %d", len(blob), cap(blob))
	}
	got, err := DecodeSpaceSavingHeap(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != s.N() || got.Min() != s.Min() {
		t.Fatal("metadata lost")
	}
	for r := 1; r <= 600; r++ {
		it := g.ItemOfRank(r)
		if got.Estimate(it) != s.Estimate(it) || got.GuaranteedCount(it) != s.GuaranteedCount(it) {
			t.Fatalf("estimate mismatch for item %d", it)
		}
	}
}

func TestLossyCountingRoundTrip(t *testing.T) {
	for _, v := range []LCVariant{VariantLC, VariantLCD} {
		l := NewLossyCounting(0.005, v)
		g, _ := zipf.NewGenerator(400, 1.0, 9, true)
		for i := 0; i < 25000; i++ {
			l.Update(g.Next(), 1)
		}
		blob, err := l.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeLossyCounting(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != l.Name() || got.N() != l.N() || len(got.st.nodes) != len(l.st.nodes) {
			t.Fatal("metadata lost")
		}
		for r := 1; r <= 400; r++ {
			it := g.ItemOfRank(r)
			if got.Estimate(it) != l.Estimate(it) {
				t.Fatalf("estimate mismatch for item %d", it)
			}
		}
	}
}

// lcBlob writes an LC01 blob by hand: the header, then one (item,
// count, Δ) triple per entry.
func lcBlob(eps float64, variant LCVariant, n int64, entries ...[3]int64) []byte {
	out := []byte(magicLC)
	out = le.AppendUint64(out, math.Float64bits(eps))
	out = le.AppendUint64(out, uint64(variant))
	out = le.AppendUint64(out, uint64(n))
	out = le.AppendUint64(out, uint64(len(entries)))
	for _, e := range entries {
		for _, v := range e {
			out = le.AppendUint64(out, uint64(v))
		}
	}
	return out
}

// TestDecodeLossyCountingRejectsUnreachableEntries: every LC state has
// 0 < count ≤ n and 0 ≤ Δ ≤ b − 1 (b = ⌈n/w⌉, w = ⌈1/ε⌉), with
// count + Δ, the entry's heap key, inside int64. A blob breaking any of these must
// not decode: with ε = 0.01 and n = 1000 (b = 10), an accepted Δ of
// 2^63 − 1 made Estimate negative and an accepted Δ of 500 reported
// an item at 505, past the true + εN = 15 an LCD estimate may reach.
func TestDecodeLossyCountingRejectsUnreachableEntries(t *testing.T) {
	const maxI = math.MaxInt64
	bad := map[string][]byte{
		"forged Δs":          lcBlob(0.01, VariantLCD, 1000, [3]int64{7, 1, maxI}, [3]int64{9, 5, 500}),
		"Δ at b":             lcBlob(0.01, VariantLCD, 1000, [3]int64{9, 5, 10}),
		"count above n":      lcBlob(0.01, VariantLC, 1000, [3]int64{9, 1001, 0}),
		"count + Δ overflow": lcBlob(0.5, VariantLC, maxI-1, [3]int64{3, maxI - 1, 1<<62 - 2}),
	}
	for name, blob := range bad {
		if l, err := DecodeLossyCounting(blob); err == nil {
			t.Errorf("%s: decoded, Estimate(9) = %d, Query(1) = %v", name, l.Estimate(9), l.Query(1))
		}
	}
	good := map[string][]byte{
		"Δ at b − 1":      lcBlob(0.01, VariantLCD, 1000, [3]int64{9, 5, 9}),
		"count at n":      lcBlob(0.01, VariantLC, 1000, [3]int64{9, 1000, 0}),
		"largest key fit": lcBlob(0.5, VariantLC, maxI-1, [3]int64{3, maxI - 1, 1}),
	}
	for name, blob := range good {
		l, err := DecodeLossyCounting(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, _ := l.MarshalBinary(); !bytes.Equal(again, blob) {
			t.Errorf("%s: re-encoding changed the blob", name)
		}
	}
}

func TestCounterDecodeRejectsCorruption(t *testing.T) {
	f := NewFrequent(8)
	f.Update(1, 5)
	f.Update(2, 3)
	fb, _ := f.MarshalBinary()

	s := NewSpaceSavingHeap(8)
	s.Update(1, 5)
	sb, _ := s.MarshalBinary()

	l := NewLossyCounting(0.1, VariantLC)
	l.Update(1, 5)
	lb, _ := l.MarshalBinary()

	if _, err := DecodeFrequent(fb[:len(fb)-3]); err == nil {
		t.Error("truncated Frequent accepted")
	}
	if _, err := DecodeFrequent(sb); err == nil {
		t.Error("Frequent decoder accepted SpaceSaving blob")
	}
	if _, err := DecodeSpaceSavingHeap(lb); err == nil {
		t.Error("SpaceSaving decoder accepted LossyCounting blob")
	}
	if _, err := DecodeLossyCounting(append(lb, 9)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := DecodeLossyCounting([]byte("LC01")); err == nil {
		t.Error("header-only blob accepted")
	}

	// Forged entry count exceeding k must be rejected.
	forged := append([]byte{}, fb...)
	forged[4+24] = 0xFF // entries field low byte
	if _, err := DecodeFrequent(forged); err == nil {
		t.Error("forged entry count accepted")
	}

	// A Space-Saving entry repeating an item, or with a count no stream
	// reaches, too, in SS02 and in the SS01 earlier builds wrote. The
	// SS02 duplicate is the encoder's own blob with entry 1 given entry
	// 0's item (the magic and three one-byte varints, then 8-byte items
	// and one-byte counts and errors).
	s.Update(2, 3)
	sb, _ = s.MarshalBinary()
	const first, entry = 4 + 3, 8 + 2
	if len(sb) != first+2*entry {
		t.Fatalf("SS02 blob of two small counts is %d bytes, want %d", len(sb), first+2*entry)
	}
	dup := bytes.Clone(sb)
	copy(dup[first+entry:first+entry+8], dup[first:first+8])
	// 2^20 takes three varint bytes, so the cut blob still has the 10
	// bytes an entry needs at least, and its count runs off the end.
	cut := ssBlob("SS02", 4, 1<<20, 1, [3]uint64{7, 1 << 20, 0})
	cut = cut[:len(cut)-2]
	for name, b := range map[string][]byte{
		"SS02 duplicate":             dup,
		"SS02 count above n":         ssBlob("SS02", 4, 10, 1, [3]uint64{7, 11, 0}),
		"SS02 err above count":       ssBlob("SS02", 4, 10, 1, [3]uint64{7, 5, 6}),
		"SS02 n of 2^63":             ssBlob("SS02", 4, 1<<63, 0),
		"SS02 n past 2^63":           ssBlob("SS02", 4, 1<<64-1, 1, [3]uint64{7, 1, 0}),
		"SS02 entries past bytes/10": ssBlob("SS02", 4, 10, 3, [3]uint64{7, 5, 0}, [3]uint64{8, 5, 0}),
		"SS01 duplicate":             ssBlob("SS01", 4, 10, 2, [3]uint64{7, 5, 0}, [3]uint64{7, 5, 0}),
		"SS01 negative count":        ssBlob("SS01", 4, 10, 1, [3]uint64{7, 1 << 63, 0}),
		"SS01 err above count":       ssBlob("SS01", 4, 10, 1, [3]uint64{7, 5, 6}),
	} {
		if _, err := DecodeSpaceSavingHeap(b); err == nil {
			t.Errorf("SpaceSaving decoder accepted a blob with %s", name)
		}
	}
	// A blob cut inside its last item reads that item as 0, which entry
	// 0 already holds: the error must still be the cut.
	cutItem := append(ssBlob("SS02", 4, 1<<21, 3, [3]uint64{0, 1 << 20, 0}, [3]uint64{8, 1 << 20, 0}), 1, 2, 3, 4, 5, 6)
	for name, b := range map[string][]byte{"a varint": cut, "an item": cutItem} {
		if _, err := DecodeSpaceSavingHeap(b); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("SS02 blob cut inside %s: %v, want a truncation error", name, err)
		}
	}
	for _, magic := range []string{"SS02", "SS01"} {
		b := ssBlob(magic, 4, 10, 2, [3]uint64{7, 5, 0}, [3]uint64{8, 5, 2})
		got, err := DecodeSpaceSavingHeap(b)
		if err != nil {
			t.Fatalf("%s blob of reachable entries refused: %v", magic, err)
		}
		if got.Estimate(8) != 5 || got.GuaranteedCount(8) != 3 || got.N() != 10 {
			t.Errorf("%s blob decoded to Estimate(8) = %d, GuaranteedCount(8) = %d, n = %d", magic,
				got.Estimate(8), got.GuaranteedCount(8), got.N())
		}
	}
}

// ssBlob writes a Space-Saving blob by hand: the magic, then k, n and
// the entry count cnt, then each (item, count, err) entry. SS02 writes
// every field but the item as a uvarint, SS01 every field as a u64.
func ssBlob(magic string, k, n, cnt uint64, entries ...[3]uint64) []byte {
	field := func(out []byte, v uint64) []byte {
		if magic == magicSS1 {
			return le.AppendUint64(out, v)
		}
		return binary.AppendUvarint(out, v)
	}
	out := field(field(field([]byte(magic), k), n), cnt)
	for _, e := range entries {
		out = field(field(le.AppendUint64(out, e[0]), e[1]), e[2])
	}
	return out
}

func TestCounterRoundTripPreservesMergeability(t *testing.T) {
	a := NewSpaceSavingHeap(16)
	b := NewSpaceSavingHeap(16)
	g, _ := zipf.NewGenerator(100, 1.0, 11, true)
	for i := 0; i < 5000; i++ {
		it := g.Next()
		a.Update(it, 1)
		b.Update(it, 1)
	}
	blob, _ := a.MarshalBinary()
	decoded, err := DecodeSpaceSavingHeap(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.Merge(b); err != nil {
		t.Fatalf("decoded summary not mergeable: %v", err)
	}
	if decoded.N() != a.N()+b.N() {
		t.Errorf("merged N = %d, want %d", decoded.N(), a.N()+b.N())
	}
}

// TestDecodeRefusesCountsAboveN: no counter Update or Merge reaches is
// above the stream length n — a merged count is c_a + c_b, or c plus
// the other side's minimum, each at most n_a + n_b — so FQ01, SS02,
// SS01 and SL01 refuse a negative n and an entry counting past n. Accepted, the
// k = 4, n = 10 blob holding item 7 at 2^62 self-merges to an estimate
// of −2^63 and an encoding its own decoder refuses.
func TestDecodeRefusesCountsAboveN(t *testing.T) {
	blob := func(magic string, words ...uint64) []byte {
		out := []byte(magic)
		for _, w := range words {
			out = le.AppendUint64(out, w)
		}
		return out
	}
	decoders := map[string]func([]byte) (core.Summary, error){
		"FQ01": func(b []byte) (core.Summary, error) { return DecodeFrequent(b) },
		"SS01": func(b []byte) (core.Summary, error) { return DecodeSpaceSavingHeap(b) },
		"SL01": func(b []byte) (core.Summary, error) { return DecodeSpaceSavingList(b) },
	}
	// Header words after the magic: k, n, then FQ01's decrement mass.
	header := func(magic string, n uint64) []uint64 {
		if magic == "FQ01" {
			return []uint64{4, n, 0}
		}
		return []uint64{4, n}
	}
	for magic, decode := range decoders {
		entry := []uint64{7, 1 << 62, 0} // item, count, err
		if magic == "FQ01" {
			entry = entry[:2]
		}
		for name, words := range map[string][]uint64{
			"count above n": append(append(header(magic, 10), 1), entry...),
			"negative n":    append(header(magic, 1<<63), 0),
		} {
			if s, err := decode(blob(magic, words...)); err == nil {
				t.Errorf("%s with %s decoded (Estimate(7) = %d)", magic, name, s.Estimate(7))
			}
		}
		entry[1] = 10 // a count of exactly n is reachable
		if _, err := decode(blob(magic, append(append(header(magic, 10), 1), entry...)...)); err != nil {
			t.Errorf("%s with a count of n refused: %v", magic, err)
		}
	}
	// SS02 holds the same fields as varints, so n reads as a uint64 and
	// one of 2^63 or more is the negative n SS01 refuses.
	for name, b := range map[string][]byte{
		"count above n": ssBlob("SS02", 4, 10, 1, [3]uint64{7, 1 << 62, 0}),
		"n of 2^63":     ssBlob("SS02", 4, 1<<63, 0),
		"n of 2^64 − 1": ssBlob("SS02", 4, 1<<64-1, 1, [3]uint64{7, 1 << 62, 0}),
	} {
		if s, err := DecodeSpaceSavingHeap(b); err == nil {
			t.Errorf("SS02 with %s decoded (Estimate(7) = %d)", name, s.Estimate(7))
		}
	}
	if _, err := DecodeSpaceSavingHeap(ssBlob("SS02", 4, 10, 1, [3]uint64{7, 10, 0})); err != nil {
		t.Errorf("SS02 with a count of n refused: %v", err)
	}
}
