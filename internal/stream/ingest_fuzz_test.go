package stream

import (
	"bytes"
	"slices"
	"testing"

	"streamfreq/internal/core"
)

// FuzzOpenIngest drives the HTTP ingest decoders with any Content-Type
// and body. OpenIngest, NextBatch and Err must never panic; no body
// decodes to more items than it has bytes (a token takes at least one,
// a binary item eight); a text body captures at most maxNames
// spellings; and the body's whole 8-byte items, written as a stream
// file by Write, decode back exactly.
func FuzzOpenIngest(f *testing.F) {
	var file bytes.Buffer
	if err := Write(&file, "seed", []core.Item{1, 2, 3}); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		contentType string
		body        []byte
	}{
		{"application/octet-stream", AppendRaw(nil, []core.Item{1, 2, 3})},
		{"", []byte{1, 2, 3}},
		{"text/plain; charset=utf-8", []byte("alpha beta alpha\n\tgamma")},
		{"TEXT/PLAIN", bytes.Repeat([]byte("x y "), 64)},
		{"application/x-sfstream", file.Bytes()},
		{"application/x-sfstream", file.Bytes()[:30]},
		{"application/json", []byte("{}")},
	} {
		f.Add(seed.contentType, seed.body, uint8(2))
	}
	f.Fuzz(func(t *testing.T, contentType string, body []byte, maxNames uint8) {
		src, err := OpenIngest(contentType, bytes.NewReader(body), int(maxNames))
		if err == nil {
			items := drain(src)
			_ = src.Err()
			if len(items) > len(body) {
				t.Fatalf("%q body of %d bytes decoded to %d items", contentType, len(body), len(items))
			}
			if names := src.Names(); len(names) > int(maxNames) {
				t.Fatalf("captured %d spellings, cap %d", len(names), maxNames)
			}
		}

		want, err := DecodeRaw(nil, body[:len(body)/8*8])
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := Write(&file, contentType, want); err != nil {
			t.Fatal(err)
		}
		src, err = OpenIngest("application/x-sfstream", &file, 0)
		if err != nil {
			t.Fatalf("opening a written stream file: %v", err)
		}
		if got := drain(src); !slices.Equal(got, want) || src.Err() != nil {
			t.Fatalf("stream file round trip: got %d items (err %v), want %d", len(got), src.Err(), len(want))
		}
	})
}

// drain reads src to the end in odd-sized batches.
func drain(src *IngestSource) []core.Item {
	var out []core.Item
	buf := make([]core.Item, 7)
	for {
		n := src.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}
