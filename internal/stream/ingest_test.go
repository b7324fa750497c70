package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
	"testing/iotest"

	"streamfreq/internal/core"
)

// TestIngestBodySplitAtEveryOffset: a body decodes to the same items,
// and ends with the same error, however the transport splits it. Every
// Content-Type's body (raw items with and without a torn tail, text
// tokens, a stream file) is delivered in two reads split at every byte
// offset, and one byte per read, and drained at two batch lengths; the
// torn raw body ends in ErrUnexpectedEOF every time.
func TestIngestBodySplitAtEveryOffset(t *testing.T) {
	items := []core.Item{0, 1, 0xdeadbeef, 1 << 63, ^core.Item(0), 42, 42, 7}
	var file bytes.Buffer
	if err := Write(&file, "split", items); err != nil {
		t.Fatal(err)
	}
	raw := AppendRaw(nil, items)
	bodies := []struct {
		name, contentType string
		body              []byte
	}{
		{"raw", "application/octet-stream", raw},
		{"raw torn", "application/octet-stream", raw[:len(raw)-3]},
		{"text", "text/plain", []byte("alpha beta\talpha\n gamma  delta beta")},
		{"stream file", "application/x-sfstream", file.Bytes()},
	}
	for _, tc := range bodies {
		for _, batch := range []int{3, core.DefaultBatchSize} {
			decode := func(r io.Reader) ([]core.Item, error) {
				src, err := OpenIngest(tc.contentType, r, -1)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				var out []core.Item
				buf := make([]core.Item, batch)
				for n := src.NextBatch(buf); n > 0; n = src.NextBatch(buf) {
					out = append(out, buf[:n]...)
				}
				return out, src.Err()
			}
			want, wantErr := decode(bytes.NewReader(tc.body))
			if len(want) == 0 || (tc.name == "raw torn") != errors.Is(wantErr, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: decoded %d items, err %v", tc.name, len(want), wantErr)
			}
			check := func(how string, r io.Reader) {
				t.Helper()
				got, err := decode(r)
				if !slices.Equal(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s, batch %d, %s: %d items (err %v), want %d (err %v)",
						tc.name, batch, how, len(got), err, len(want), wantErr)
				}
			}
			for i := range len(tc.body) + 1 {
				check(fmt.Sprintf("split at %d", i), io.MultiReader(bytes.NewReader(tc.body[:i]), bytes.NewReader(tc.body[i:])))
			}
			check("one byte per read", iotest.OneByteReader(bytes.NewReader(tc.body)))
		}
	}
}
