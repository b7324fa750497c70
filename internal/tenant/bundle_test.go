package tenant_test

import (
	"encoding/binary"
	"runtime"
	"sort"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/tenant"
)

// TestDecodeBundleHostileCountBounded: a header claiming far more
// namespaces than the frame can hold is refused with an allocation
// proportional to the frame, not to the claim (freqmerge decodes a
// bundle from every tenant node on every pull).
func TestDecodeBundleHostileCountBounded(t *testing.T) {
	header := binary.LittleEndian.AppendUint32([]byte("SFTB0001"), 1<<20)
	for _, frame := range [][]byte{header, append(header, make([]byte, 1200)...)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tenant.DecodeBundle(frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d-byte frame claiming 2^20 namespaces decoded", len(frame))
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4096+64*len(frame)); got > limit {
			t.Fatalf("%d-byte frame allocated %d bytes (limit %d)", len(frame), got, limit)
		}
	}
}

// FuzzDecodeBundle: DecodeBundle never panics on any input, and a table
// built from the input round-trips through EncodeBundle: the decoded
// frame lists the table's namespaces in order, each blob a Space-Saving
// summary of exactly the items ingested under that namespace, resident
// or evicted.
func FuzzDecodeBundle(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("SFTB0001\x00\x00\x00\x01"))
	f.Add([]byte("SFTB0001\x01\x00\x00\x00\x01\x00a\x00\x00\x00\x00"))
	f.Add([]byte{0, 1, 1, 1, 2, 7, 3, 9, 4, 4, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if entries, err := tenant.DecodeBundle(data); err == nil && len(entries)*6 > len(data) {
			t.Fatalf("%d entries decoded from %d bytes", len(entries), len(data))
		}
		tb := newTable(t, tenant.Options{DefaultPhi: 0.1, MaxResident: 2})
		want := map[string]int64{}
		for i := 0; i+1 < len(data) && i < 512; i += 2 {
			ns := string(rune('a' + data[i]%5))
			if _, _, err := tb.IngestBatch(ns, []core.Item{core.Item(data[i+1])}); err != nil {
				t.Fatal(err)
			}
			want[ns]++
		}
		bundle, err := tb.EncodeBundle()
		if err != nil {
			t.Fatal(err)
		}
		entries, err := tenant.DecodeBundle(bundle)
		if err != nil {
			t.Fatalf("EncodeBundle output does not decode: %v", err)
		}
		sorted := sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].NS < entries[j].NS })
		if len(entries) != len(want) || !sorted {
			t.Fatalf("decoded %d namespaces (sorted %v), want %d in order", len(entries), sorted, len(want))
		}
		for _, e := range entries {
			sum, err := counters.DecodeSpaceSavingHeap(e.Blob)
			if err != nil {
				t.Fatalf("namespace %q: %v", e.NS, err)
			}
			if sum.N() != want[e.NS] {
				t.Fatalf("namespace %q decoded n=%d, want %d", e.NS, sum.N(), want[e.NS])
			}
		}
	})
}
