package stream

import (
	"bytes"
	"strings"
	"testing"

	"streamfreq/internal/core"
)

func TestRoundTrip(t *testing.T) {
	items := []core.Item{1, 2, 3, 1 << 60, 0}
	var buf bytes.Buffer
	if err := Write(&buf, "test meta ✓", items); err != nil {
		t.Fatal(err)
	}
	meta, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta != "test meta ✓" {
		t.Errorf("meta = %q", meta)
	}
	if len(got) != len(items) {
		t.Fatalf("length %d, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i] != items[i] {
			t.Errorf("item %d = %d, want %d", i, got[i], items[i])
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "", nil); err != nil {
		t.Fatal(err)
	}
	meta, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta != "" || len(got) != 0 {
		t.Errorf("unexpected contents: %q, %v", meta, got)
	}
}

func TestReadBadMagic(t *testing.T) {
	if _, _, err := Read(strings.NewReader("NOTMAGIChello world padding")); err == nil {
		t.Error("expected bad-magic error")
	}
}

func TestReadTruncated(t *testing.T) {
	items := []core.Item{1, 2, 3, 4, 5}
	var buf bytes.Buffer
	if err := Write(&buf, "m", items); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, len(Magic) + 8, len(full) - 3} {
		if _, _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("expected error for truncation at %d", cut)
		}
	}
}

func TestReadHugeMetadataRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	// n=0, m=2^30 (over the limit)
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	buf.Write([]byte{0, 0, 0, 64, 0, 0, 0, 0})
	if _, _, err := Read(&buf); err == nil {
		t.Error("expected metadata-limit error")
	}
}

func TestReadHugeItemCountRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	// n = 2^40, m = 0
	buf.Write([]byte{0, 0, 0, 0, 0, 1, 0, 0})
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	if _, _, err := Read(&buf); err == nil {
		t.Error("expected item-count-limit error")
	}
}

// streamFile writes a stream file and returns its bytes.
func streamFile(t *testing.T, meta string, items []core.Item) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, meta, items); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReaderBatchedDrain(t *testing.T) {
	items := make([]core.Item, 1000)
	for i := range items {
		items[i] = core.Item(i * 3)
	}
	data := streamFile(t, "batched", items)

	// Drain with a buffer that does not divide the item count, so the
	// final batch is short.
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta() != "batched" || r.Len() != len(items) {
		t.Fatalf("header: meta %q len %d", r.Meta(), r.Len())
	}
	buf := make([]core.Item, 333)
	var got []core.Item
	for {
		n := r.NextBatch(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("drained %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("item %d = %d, want %d", i, got[i], items[i])
		}
	}
}

func TestReaderTruncatedItemsSurfacesErr(t *testing.T) {
	items := []core.Item{1, 2, 3, 4, 5}
	data := streamFile(t, "m", items)
	r, err := NewReader(bytes.NewReader(data[:len(data)-3]))
	if err != nil {
		t.Fatal(err) // header is intact; the damage is in the items
	}
	buf := make([]core.Item, 16)
	for r.NextBatch(buf) > 0 {
	}
	if r.Err() == nil {
		t.Fatal("expected a decode error from the truncated item section")
	}
}
