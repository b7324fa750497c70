package tenant_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/persist"
	"streamfreq/internal/tenant"
	"streamfreq/internal/testutil"
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

// bundleOf frames entries by hand, in the order given.
func bundleOf(entries ...tenant.NamespaceBlob) []byte {
	le := binary.LittleEndian
	out := le.AppendUint32([]byte("SFTB0001"), uint32(len(entries)))
	for _, e := range entries {
		out = append(le.AppendUint16(out, uint16(len(e.NS))), e.NS...)
		out = append(le.AppendUint32(out, uint32(len(e.Blob))), e.Blob...)
	}
	return out
}

// TestDecodeBundleRefusesUnorderedNamespaces: EncodeBundle writes
// namespaces strictly ascending, and DecodeBundle requires it. A frame
// naming one twice decoded, and freqmerge kept whichever entry came
// last, where a checkpoint restore refuses duplicates.
func TestDecodeBundleRefusesUnorderedNamespaces(t *testing.T) {
	blob := []byte{1}
	for name, c := range map[string]struct {
		names []string
		ok    bool
	}{
		"ascending":          {[]string{"", "a", "b", "ba"}, true},
		"repeated":           {[]string{"x", "x"}, false},
		"repeated empty":     {[]string{"", ""}, false},
		"descending":         {[]string{"b", "a"}, false},
		"repeated, not next": {[]string{"a", "b", "a"}, false},
	} {
		entries := make([]tenant.NamespaceBlob, len(c.names))
		for i, ns := range c.names {
			entries[i] = tenant.NamespaceBlob{NS: ns, Blob: blob}
		}
		got, err := tenant.DecodeBundle(bundleOf(entries...))
		if (err == nil) != c.ok {
			t.Errorf("%s %q: decoded %d entries, err %v; want ok=%v", name, c.names, len(got), err, c.ok)
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
	// A repeated and an out-of-order namespace, each of which decoded.
	f.Add(bundleOf(tenant.NamespaceBlob{NS: "x"}, tenant.NamespaceBlob{NS: "x"}))
	f.Add(bundleOf(tenant.NamespaceBlob{NS: "b", Blob: []byte{1}}, tenant.NamespaceBlob{NS: "a"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if entries, err := tenant.DecodeBundle(data); err == nil {
			if len(entries)*6 > len(data) {
				t.Fatalf("%d entries decoded from %d bytes", len(entries), len(data))
			}
			for i := 1; i < len(entries); i++ {
				if entries[i].NS <= entries[i-1].NS {
					t.Fatalf("decoded namespace %q after %q", entries[i].NS, entries[i-1].NS)
				}
			}
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

// TestBundleGolden pins SFTB0001 to the bytes recorded when SS02
// replaced SS01 as its blob encoding: four namespaces under a
// two-tenant residency cap, so the frame mixes re-encoded resident
// tenants with stored blobs. The golden must also decode, restore into
// a fresh table and re-encode byte for byte. The bundle an earlier
// build wrote, with SS01 blobs, must still decode, and re-encode to
// the current golden.
func TestBundleGolden(t *testing.T) {
	tb := newTable(t, tenant.Options{DefaultPhi: 0.1, MaxResident: 2, Phi: map[string]float64{"eu": 0.05}})
	names := []string{"", "eu", "us", "ap"}
	for i := 0; i < 2_000; i++ {
		ns := names[(i*7/5)%len(names)]
		if _, _, err := tb.IngestBatch(ns, []core.Item{core.Item((i * i) % 37), core.Item(i % 5)}); err != nil {
			t.Fatal(err)
		}
	}
	bundle, err := tb.EncodeBundle()
	if err != nil {
		t.Fatal(err)
	}
	golden := testutil.CheckGolden(t, "testdata/bundle_golden.json", []testutil.Golden{{Name: "SFTB0001", Blob: bundle}})[0].Blob
	again, err := rebundle(t, golden)
	if err != nil {
		t.Fatalf("golden does not decode: %v", err)
	}
	if !bytes.Equal(again, golden) {
		t.Fatalf("golden re-encodes to different bytes (%d vs %d)", len(again), len(golden))
	}
	testutil.CheckLegacyGolden(t, "testdata/bundle_golden_ss01.json", map[string][]byte{"SFTB0001": golden},
		func(l testutil.Golden) ([]byte, error) { return rebundle(t, l.Blob) })
}

// rebundle decodes a bundle, re-encodes each namespace's blob, restores
// them into a fresh table and returns that table's bundle.
func rebundle(t *testing.T, bundle []byte) ([]byte, error) {
	entries, err := tenant.DecodeBundle(bundle)
	if err != nil {
		return nil, err
	}
	states := make([]persist.TenantState, len(entries))
	for i, e := range entries {
		sum, err := counters.DecodeSpaceSavingHeap(e.Blob)
		if err != nil {
			return nil, fmt.Errorf("namespace %q: %w", e.NS, err)
		}
		blob, err := sum.MarshalBinary()
		if err != nil {
			return nil, err
		}
		states[i] = persist.TenantState{NS: e.NS, K: sum.K(), N: sum.N(), Blob: blob}
	}
	restored := newTable(t, tenant.Options{DefaultPhi: 0.1})
	if err := restored.RestoreTenants(states); err != nil {
		return nil, err
	}
	return restored.EncodeBundle()
}
