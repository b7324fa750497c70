package streamfreq

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// counterBlob writes a blob by hand: the magic, the header words,
// then flat (item, count, err) entries. Items and Lossy Counting's
// first header word (ε's float64 bits) are u64s; an 02 counter magic
// writes every other word as a uvarint, an 01 magic (every 01 format
// is fixed-width) as a u64, and FQ01 writes no err.
func counterBlob(magic string, header []uint64, entries ...uint64) []byte {
	word := func(out []byte, v uint64) []byte {
		if magic[3] == '1' {
			return binary.LittleEndian.AppendUint64(out, v)
		}
		return binary.AppendUvarint(out, v)
	}
	out := []byte(magic)
	for i, v := range header {
		if i == 0 && magic[:2] == "LC" {
			out = binary.LittleEndian.AppendUint64(out, v)
		} else {
			out = word(out, v)
		}
	}
	for i, v := range entries {
		switch {
		case i%3 == 0:
			out = binary.LittleEndian.AppendUint64(out, v)
		case i%3 == 1 || magic != "FQ01":
			out = word(out, v)
		}
	}
	return out
}

// counterHead is a hand-built counter blob's header: k = 4 (Lossy
// Counting: ε = 0.5 and the LC variant), n, Frequent's zero decrement
// total, and cnt entries.
func counterHead(magic string, n, cnt uint64) []uint64 {
	switch magic[:2] {
	case "FQ":
		return []uint64{4, n, 0, cnt}
	case "LC":
		return []uint64{math.Float64bits(0.5), 0, n, cnt}
	}
	return []uint64{4, n, cnt}
}

// allocated returns the bytes fn allocates, garbage included.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeAllocationBounded: a counter decoder allocates for the
// entries a blob carries, not for the budget its header claims, so a
// forged header costs O(len(data)) like every other format's. Each
// blob claims the largest budget a decoder accepts and holds no entry
// (LC02 has no budget); WN01 nests three such SS02 headers as its live
// blocks (146 bytes). A header of each counter format that claims that
// many entries over two is refused, having allocated for the bytes,
// not the claim.
func TestDecodeAllocationBounded(t *testing.T) {
	const k = 1 << 22 // the largest budget a decoder accepts
	cm, err := NewCountMin(2, 16, 3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	eps := math.Float64bits(0.5)
	ss := counterBlob("SS02", []uint64{k, 0, 0})
	wn := counterBlob("WN01", []uint64{4, 2, k, 0, 4, 2, 0, 3})
	for idx := range uint64(3) {
		wn = append(counterBlob(string(wn), []uint64{idx, uint64(len(ss))}), ss...)
	}
	blobs := map[string][]byte{
		"FQ02": counterBlob("FQ02", []uint64{k, 0, 0, 0}), // k, n, decrements, entries
		"SS02": ss,
		"LC02": counterBlob("LC02", []uint64{eps, 0, 0, 0}), // ε, variant, n, entries
		"SL02": counterBlob("SL02", []uint64{k, 0, 0}),
		"FQ01": counterBlob("FQ01", []uint64{k, 0, 0, 0}),
		"SS01": counterBlob("SS01", []uint64{k, 0, 0}),
		"SL01": counterBlob("SL01", []uint64{k, 0, 0}),
		"TK01": append(counterBlob("TK01", []uint64{k, 0, uint64(len(cm))}), cm...), // capacity, entries, inner length
		"WN01": wn,
	}
	for magic, blob := range blobs {
		t.Run(magic, func(t *testing.T) {
			var s Summary
			bytes := allocated(func() {
				if s, err = Decode(blob); err != nil {
					t.Fatal(err)
				}
			})
			runtime.KeepAlive(s)
			t.Logf("%d-byte blob: %d bytes allocated", len(blob), bytes)
			if bytes >= 1<<20 {
				t.Errorf("decoding a %d-byte %s blob allocated %d bytes, want under 1 MiB", len(blob), magic, bytes)
			}
		})
	}
	for _, short := range [][]byte{
		counterBlob("SS02", []uint64{k, k, k}, 7, 1, 0, 8, 1, 0),
		counterBlob("FQ02", []uint64{k, k, 0, k}, 7, 1, 0, 8, 1, 0),
		counterBlob("LC02", []uint64{eps, 0, k, k}, 7, 1, 0, 8, 1, 0),
		counterBlob("SL02", []uint64{k, k, k}, 7, 1, 0, 8, 1, 0),
	} {
		t.Run(string(short[:4])+" claiming k entries", func(t *testing.T) {
			bytes := allocated(func() {
				if _, err := Decode(short); err == nil {
					t.Error("decoded")
				}
			})
			t.Logf("%d-byte blob: %d bytes allocated", len(short), bytes)
			if limit := uint64(1024 + 16*len(short)); bytes > limit {
				t.Errorf("refusing a %d-byte blob that claims %d entries allocated %d bytes, want at most %d", len(short), k, bytes, limit)
			}
		})
	}
}

// TestDecodedSummaryGrowsToBudget: a decoded store holds what its blob
// carried, and one that keeps ingesting grows to its budget, ending at
// exactly a fresh summary's Bytes() once it is full.
func TestDecodedSummaryGrowsToBudget(t *testing.T) {
	const phi = 0.01
	items := make([]Item, 5000)
	for i := range items {
		items[i] = Item(i % 997)
	}
	for _, name := range []string{"F", "SSL", "SSH", "CM", "CS"} {
		t.Run(name, func(t *testing.T) {
			fresh := MustNew(name, phi, 7)
			UpdateAll(fresh, items[:20])
			dec, err := Decode(marshal(t, name, fresh))
			if err != nil {
				t.Fatal(err)
			}
			if dec.Bytes() >= fresh.Bytes() {
				t.Errorf("decoded %d entries into %d bytes, a fresh summary's whole budget is %d", 20, dec.Bytes(), fresh.Bytes())
			}
			UpdateAll(fresh, items[20:])
			UpdateAll(dec, items[20:])
			if dec.Bytes() != fresh.Bytes() {
				t.Errorf("full decoded summary reports %d bytes, a fresh one %d", dec.Bytes(), fresh.Bytes())
			}
			if got, want := dec.Query(1), fresh.Query(1); len(got) != len(want) {
				t.Errorf("decoded summary reports %d items, the fresh one %d", len(got), len(want))
			}
		})
	}
}
