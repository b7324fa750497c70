package counters

import (
	"bytes"
	"math"
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

func TestSpaceSavingRoundTrip(t *testing.T) {
	s := NewSpaceSavingHeap(40)
	g, _ := zipf.NewGenerator(600, 1.2, 7, true)
	for i := 0; i < 30000; i++ {
		s.Update(g.Next(), 1)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
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

	// An SS01 entry repeating an item, or with a negative count, too.
	s.Update(2, 3)
	sb, _ = s.MarshalBinary()
	const first = 4 + 3*8 // SS01 header: magic, k, n, entry count
	dup := bytes.Clone(sb)
	copy(dup[first+24:first+32], dup[first:first+8])
	negative := bytes.Clone(sb)
	le.PutUint64(negative[first+8:], 1<<63)
	for name, b := range map[string][]byte{"duplicate": dup, "negative": negative} {
		if _, err := DecodeSpaceSavingHeap(b); err == nil {
			t.Errorf("SpaceSaving decoder accepted a %s entry", name)
		}
	}
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
// the other side's minimum, each at most n_a + n_b — so FQ01, SS01 and
// SL01 refuse a negative n and an entry counting past n. Accepted, the
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
}
