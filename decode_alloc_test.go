package streamfreq

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// counterBlob writes a counter-summary blob by hand: the magic, then
// every header word and entry field as a little-endian u64.
func counterBlob(magic string, words ...uint64) []byte {
	out := []byte(magic)
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// ss02Blob writes an SS02 blob by hand: the magic, then k, n and the
// entry count cnt as uvarints, then per (item, count, err) entry the
// item as a little-endian u64 and the count and error as uvarints.
func ss02Blob(k, n, cnt uint64, entries ...[3]uint64) []byte {
	out := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint([]byte("SS02"), k), n), cnt)
	for _, e := range entries {
		out = binary.LittleEndian.AppendUint64(out, e[0])
		out = binary.AppendUvarint(binary.AppendUvarint(out, e[1]), e[2])
	}
	return out
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
// blob claims the largest budget a decoder accepts and holds no entry;
// WN01 nests three such SS02 headers as its live blocks (146 bytes).
// An SS02 header that claims that many entries over a few bytes is
// refused, having allocated for the bytes, not the claim.
func TestDecodeAllocationBounded(t *testing.T) {
	const k = 1 << 22 // the largest budget a decoder accepts
	cm, err := NewCountMin(2, 16, 3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ss := ss02Blob(k, 0, 0)
	wn := counterBlob("WN01", 4, 2, k, 0, 4, 2, 0, 3)
	for idx := range uint64(3) {
		wn = append(counterBlob(string(wn), idx, uint64(len(ss))), ss...)
	}
	blobs := map[string][]byte{
		"FQ01": counterBlob("FQ01", k, 0, 0, 0), // k, n, decrements, entries
		"SS02": ss,
		"SS01": counterBlob("SS01", k, 0, 0), // k, n, entries
		"SL01": counterBlob("SL01", k, 0, 0),
		"TK01": append(counterBlob("TK01", k, 0, uint64(len(cm))), cm...), // capacity, entries, inner length
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
	t.Run("SS02 claiming k entries", func(t *testing.T) {
		short := ss02Blob(k, k, k, [3]uint64{7, 1, 0}, [3]uint64{8, 1, 0})
		bytes := allocated(func() {
			if _, err := Decode(short); err == nil {
				t.Error("decoded")
			}
		})
		t.Logf("%d-byte blob: %d bytes allocated", len(short), bytes)
		if limit := uint64(1024 + 16*len(short)); bytes > limit {
			t.Errorf("refusing a %d-byte SS02 blob that claims %d entries allocated %d bytes, want at most %d", len(short), k, bytes, limit)
		}
	})
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
