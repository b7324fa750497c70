package counters

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/zipf"
)

// encoded is a counter summary with its encoding.
type encoded interface {
	core.Summary
	MarshalBinary() ([]byte, error)
}

// decode dispatches a counter blob on its magic, as the root package's
// registry does: both formats of a summary go to its one decoder.
func decode(b []byte) (core.Summary, error) {
	switch string(b[:2]) {
	case "FQ":
		return DecodeFrequent(b)
	case "SS":
		return DecodeSpaceSavingHeap(b)
	case "LC":
		return DecodeLossyCounting(b)
	}
	return DecodeSpaceSavingList(b)
}

// counterBlob writes a counter blob by hand: the magic, the header
// words (the entry count last), then the entries, flat (item, count,
// err) triples. Items and Lossy Counting's first header word (ε's
// float64 bits) are u64s; an 02 magic writes every other word as a
// uvarint, an 01 magic as a u64, and FQ01 writes no err.
func counterBlob(magic string, header []uint64, entries ...uint64) []byte {
	word := func(out []byte, v uint64) []byte {
		if magic[3] == '1' {
			return le.AppendUint64(out, v)
		}
		return binary.AppendUvarint(out, v)
	}
	out := []byte(magic)
	for i, v := range header {
		if i == 0 && magic[:2] == "LC" {
			out = le.AppendUint64(out, v)
		} else {
			out = word(out, v)
		}
	}
	for i, v := range entries {
		switch {
		case i%3 == 0:
			out = le.AppendUint64(out, v)
		case i%3 == 1 || magic != "FQ01":
			out = word(out, v)
		}
	}
	return out
}

// counterHead is a hand-built blob's header: k = 4 (Lossy Counting:
// ε = 0.5 and the LC variant), n, Frequent's zero decrement total and
// cnt.
func counterHead(magic string, n, cnt uint64) []uint64 {
	switch magic[:2] {
	case "FQ":
		return []uint64{4, n, 0, cnt}
	case "LC":
		return []uint64{math.Float64bits(0.5), 0, n, cnt}
	}
	return []uint64{4, n, cnt}
}

var magics = []string{"FQ02", "SS02", "LC02", "SL02", "FQ01", "SS01", "LC01", "SL01"}

// roundTrip feeds s a Zipf stream, then checks that its blob is
// allocated at exactly its length (an evicted tenant keeps it as its
// whole state), decodes to a summary answering as s does, re-encodes
// to the same bytes, and keeps working.
func roundTrip(t *testing.T, s encoded) core.Summary {
	t.Helper()
	if blob, _ := s.MarshalBinary(); cap(blob) != len(blob) {
		t.Fatalf("empty %s's %d-byte blob has capacity %d", s.Name(), len(blob), cap(blob))
	}
	g, _ := zipf.NewGenerator(600, 1.1, 7, true)
	for range 25000 {
		s.Update(g.Next(), 1)
	}
	blob, _ := s.MarshalBinary()
	if cap(blob) != len(blob) {
		t.Fatalf("%s's %d-byte blob has capacity %d", s.Name(), len(blob), cap(blob))
	}
	got, err := decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != s.Name() || got.N() != s.N() || !slices.Equal(got.Query(1), s.Query(1)) {
		t.Fatalf("%s decoded to %s, n=%d, Query(1) %v", s.Name(), got.Name(), got.N(), got.Query(1))
	}
	for r := 1; r <= 600; r++ {
		if it := g.ItemOfRank(r); got.Estimate(it) != s.Estimate(it) {
			t.Fatalf("%s: estimate mismatch for item %d", s.Name(), it)
		}
	}
	if again, _ := got.(encoded).MarshalBinary(); !bytes.Equal(again, blob) {
		t.Fatalf("%s re-encodes to different bytes", s.Name())
	}
	s.Update(g.ItemOfRank(1), 5)
	if got.Update(g.ItemOfRank(1), 5); got.Estimate(g.ItemOfRank(1)) != s.Estimate(g.ItemOfRank(1)) {
		t.Errorf("decoded %s broken after further updates", s.Name())
	}
	return got
}

func TestFrequentRoundTrip(t *testing.T) {
	f := NewFrequent(32)
	if got := roundTrip(t, f).(*Frequent); got.k != f.k || got.MaxError() != f.MaxError() || f.MaxError() == 0 {
		t.Fatalf("decrement total %d, want %d", got.MaxError(), f.MaxError())
	}
}

func TestSpaceSavingRoundTrip(t *testing.T) {
	s := NewSpaceSavingHeap(40)
	got := roundTrip(t, s).(*SpaceSavingHeap)
	for it := core.Item(0); it < 2000; it++ {
		if got.GuaranteedCount(it) != s.GuaranteedCount(it) || got.Min() != s.Min() {
			t.Fatalf("GuaranteedCount(%d) = %d, want %d", it, got.GuaranteedCount(it), s.GuaranteedCount(it))
		}
	}
	roundTrip(t, NewSpaceSavingList(40))
}

func TestLossyCountingRoundTrip(t *testing.T) {
	for _, v := range []LCVariant{VariantLC, VariantLCD} {
		roundTrip(t, NewLossyCounting(0.005, v))
	}
}

// TestDecodeLossyCountingRejectsUnreachableEntries: every LC state has
// 0 < count ≤ n and 0 ≤ Δ ≤ b − 1 (b = ⌈n/w⌉, w = ⌈1/ε⌉), with
// count + Δ, the entry's heap key, inside int64. A blob breaking any of
// these must not decode, in LC02 or LC01: with ε = 0.01 and n = 1000
// (b = 10), an accepted Δ of 2^63 − 1 made Estimate negative and an
// accepted Δ of 500 reported an item at 505, past the true + εN = 15
// an LCD estimate may reach.
func TestDecodeLossyCountingRejectsUnreachableEntries(t *testing.T) {
	const maxI = math.MaxInt64
	eps := math.Float64bits
	for _, magic := range []string{"LC02", "LC01"} {
		for name, b := range map[string][]byte{
			"forged Δs":          counterBlob(magic, []uint64{eps(0.01), 1, 1000, 2}, 7, 1, maxI, 9, 5, 500),
			"Δ at b":             counterBlob(magic, []uint64{eps(0.01), 1, 1000, 1}, 9, 5, 10),
			"count + Δ overflow": counterBlob(magic, []uint64{eps(0.5), 0, maxI - 1, 1}, 3, maxI-1, 1<<62-2),
			"variant 2":          counterBlob(magic, []uint64{eps(0.01), 2, 1000, 0}),
		} {
			if l, err := DecodeLossyCounting(b); err == nil {
				t.Errorf("%s with %s decoded, Estimate(9) = %d, Query(1) = %v", magic, name, l.Estimate(9), l.Query(1))
			}
		}
		good := func(magic string) map[string][]byte {
			return map[string][]byte{
				"Δ at b − 1":      counterBlob(magic, []uint64{eps(0.01), 1, 1000, 1}, 9, 5, 9),
				"largest key fit": counterBlob(magic, []uint64{eps(0.5), 0, maxI - 1, 1}, 3, maxI-1, 1),
			}
		}
		for name, b := range good(magic) {
			l, err := DecodeLossyCounting(b)
			if err != nil {
				t.Fatalf("%s with %s: %v", magic, name, err)
			}
			if again, _ := l.MarshalBinary(); !bytes.Equal(again, good("LC02")[name]) {
				t.Errorf("%s with %s re-encodes to bytes other than its LC02 blob", magic, name)
			}
		}
	}
}

// TestCounterDecodeRejectsCorruption: every counter magic refuses a
// repeated item, a blob cut short, more entries than its bytes hold
// (at 10 bytes each; 24, or FQ01's 16, in the 01 formats), trailing
// bytes and another summary's blob; then each summary's own rules.
// A Frequent blob's decrement total is added to every estimate Query
// weighs, so one no stream reaches changes the answer: in a k = 4
// FQ01 blob whose item 1 holds 91 of n = 138, −2^62 made Query(50)
// report nothing, and 2^63 − 11 overflowed into a report of two
// count-1 items.
func TestCounterDecodeRejectsCorruption(t *testing.T) {
	eps := math.Float64bits
	bad := map[string][]byte{
		"FQ02 entries above k":           counterBlob("FQ02", counterHead("FQ02", 10, 5), 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 0),
		"SS02 err above count":           counterBlob("SS02", counterHead("SS02", 10, 1), 7, 5, 6),
		"SL02 err above count":           counterBlob("SL02", counterHead("SL02", 10, 1), 7, 5, 6),
		"SL02 counts out of order":       counterBlob("SL02", counterHead("SL02", 10, 2), 7, 5, 0, 8, 3, 0),
		"SL01 zero count":                counterBlob("SL01", counterHead("SL01", 10, 1), 7, 0, 0),
		"FQ02 err":                       counterBlob("FQ02", counterHead("FQ02", 10, 1), 7, 5, 1),
		"FQ02 decrements past n/(k+1)":   counterBlob("FQ02", []uint64{4, 10, 3, 0}),
		"FQ02 count past n − decrements": counterBlob("FQ02", []uint64{4, 10, 2, 1}, 7, 9, 0),
		"FQ01 decrements of −2^62":       counterBlob("FQ01", []uint64{4, 138, 1<<64 - 1<<62, 3}, 1, 91, 0, 2, 1, 0, 3, 1, 0),
		"FQ01 decrements of 2^63 − 11":   counterBlob("FQ01", []uint64{4, 138, 1<<63 - 11, 3}, 1, 91, 0, 2, 1, 0, 3, 1, 0),
		"LC02 ε of 1":                    counterBlob("LC02", []uint64{eps(1), 0, 10, 0}),
	}
	for _, magic := range magics {
		bad[magic+" repeated item"] = counterBlob(magic, counterHead(magic, 10, 2), 7, 3, 0, 7, 5, 0)
		bad[magic+" entries past its bytes"] = counterBlob(magic, counterHead(magic, 10, 3), 7, 3, 0, 8, 5, 0)
		bad[magic+" trailing byte"] = append(counterBlob(magic, counterHead(magic, 10, 1), 7, 3, 0), 9)
		bad[magic+" header only"] = []byte(magic)
	}
	if _, err := DecodeFrequent(counterBlob("SS02", counterHead("SS02", 10, 0))); err == nil {
		t.Error("the Frequent decoder accepted an SS02 blob")
	}
	for name, b := range bad {
		if s, err := decode(b); err == nil {
			t.Errorf("%s: decoded to n=%d, Query(50) = %v", name, s.N(), s.Query(50))
		}
	}
	// A blob cut inside a varint, or inside its last item, which reads
	// as 0 like entry 0's item: the error must be the cut. 2^20 takes
	// three varint bytes, so the cut blob still has 10 bytes an entry.
	for _, magic := range magics[:4] {
		v := counterBlob(magic, counterHead(magic, 1<<20, 1), 7, 1<<20, 0)
		item := append(counterBlob(magic, counterHead(magic, 1<<21, 3), 0, 1<<20, 0, 8, 1<<20, 0), 1, 2, 3, 4, 5, 6)
		for name, b := range map[string][]byte{"a varint": v[:len(v)-2], "an item": item} {
			if _, err := decode(b); err == nil || !strings.Contains(err.Error(), "truncated") {
				t.Errorf("%s blob cut inside %s: %v, want a truncation error", magic, name, err)
			}
		}
	}
	// What a stream reaches decodes: an err below the count (Space-
	// Saving), and the FQ01 blob above with its true decrement total.
	for _, magic := range []string{"SS02", "SS01", "SL02", "SL01"} {
		got, err := decode(counterBlob(magic, counterHead(magic, 10, 2), 7, 5, 0, 8, 5, 2))
		if err != nil || got.Estimate(8) != 5 || got.N() != 10 {
			t.Errorf("%s blob of reachable entries: %v, Estimate(8) = %d", magic, err, got.Estimate(8))
		}
	}
	f, err := DecodeFrequent(counterBlob("FQ01", []uint64{4, 138, 9, 3}, 1, 91, 0, 2, 1, 0, 3, 1, 0))
	if err != nil || !slices.Equal(f.Query(50), []core.ItemCount{{Item: 1, Count: 91}}) {
		t.Errorf("FQ01 blob with 9 decrements: %v, Query(50) = %v", err, f.Query(50))
	}
}

func TestCounterRoundTripPreservesMergeability(t *testing.T) {
	a, b := NewSpaceSavingHeap(16), NewSpaceSavingHeap(16)
	g, _ := zipf.NewGenerator(100, 1.0, 11, true)
	for range 5000 {
		it := g.Next()
		a.Update(it, 1)
		b.Update(it, 1)
	}
	blob, _ := a.MarshalBinary()
	decoded, err := DecodeSpaceSavingHeap(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.Merge(b); err != nil || decoded.N() != a.N()+b.N() {
		t.Errorf("decoded summary merged to n=%d (%v), want %d", decoded.N(), err, a.N()+b.N())
	}
}

// TestDecodeRefusesCountsAboveN: no counter Update or Merge reaches is
// above the stream length n — a merged count is c_a + c_b, or c plus
// the other side's minimum, each at most n_a + n_b — and n itself is
// below 2^63, so every counter magic refuses an n of 2^63 or more (a
// negative n, in the 01 formats' u64s) and an entry counting past n.
// Accepted, the k = 4, n = 10 blob holding item 7 at 2^62 self-merges
// to an estimate of −2^63 and an encoding its own decoder refuses.
func TestDecodeRefusesCountsAboveN(t *testing.T) {
	for _, magic := range magics {
		for name, b := range map[string][]byte{
			"count above n":  counterBlob(magic, counterHead(magic, 10, 1), 7, 1<<62, 0),
			"count of n + 1": counterBlob(magic, counterHead(magic, 10, 1), 7, 11, 0),
			"n of 2^63":      counterBlob(magic, counterHead(magic, 1<<63, 0)),
			"n of 2^64 − 1":  counterBlob(magic, counterHead(magic, 1<<64-1, 1), 7, 1, 0),
		} {
			if s, err := decode(b); err == nil {
				t.Errorf("%s with %s decoded (Estimate(7) = %d)", magic, name, s.Estimate(7))
			}
		}
		b := counterBlob(magic, counterHead(magic, 10, 1), 7, 10, 0) // a count of exactly n is reachable
		s, err := decode(b)
		if err != nil || s.Estimate(7) != 10 {
			t.Fatalf("%s with a count of n: %v", magic, err)
		}
		if again, _ := s.(encoded).MarshalBinary(); magic[3] == '2' && !bytes.Equal(again, b) {
			t.Errorf("%s with a count of n re-encodes to different bytes", magic)
		}
	}
}
