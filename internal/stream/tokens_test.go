package stream

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"streamfreq/internal/core"
)

// TestTokenSourceTable is the table-driven contract for the shared text
// tokenizer: whitespace handling, hashing consistency with
// core.HashString, name capture, and batch-boundary behaviour.
func TestTokenSourceTable(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  []string // token sequence items must hash-match
	}{
		{"empty", "", nil},
		{"single", "alpha", []string{"alpha"}},
		{"spaces", "a b c", []string{"a", "b", "c"}},
		{"repeats", "a b a a b", []string{"a", "b", "a", "a", "b"}},
		{"mixed whitespace", "a\tb\nc\r\nd   e", []string{"a", "b", "c", "d", "e"}},
		{"leading and trailing", "  \n a b \t ", []string{"a", "b"}},
		{"unicode", "héllo wörld héllo", []string{"héllo", "wörld", "héllo"}},
		{"urls", "/index.html /api?q=1 /index.html", []string{"/index.html", "/api?q=1", "/index.html"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			items, names, err := ReadTokens(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			if len(items) != len(tc.want) {
				t.Fatalf("got %d items, want %d", len(items), len(tc.want))
			}
			for i, tok := range tc.want {
				if items[i] != core.HashString(tok) {
					t.Fatalf("item[%d] = %#x, want HashString(%q) = %#x",
						i, uint64(items[i]), tok, uint64(core.HashString(tok)))
				}
				if got := names[items[i]]; got != tok {
					t.Fatalf("names[%#x] = %q, want %q", uint64(items[i]), got, tok)
				}
			}
			distinct := map[string]bool{}
			for _, tok := range tc.want {
				distinct[tok] = true
			}
			if len(names) != len(distinct) {
				t.Fatalf("names has %d entries, want %d distinct tokens", len(names), len(distinct))
			}
		})
	}
}

// TestTokenSourceBatchBoundaries drains a token stream through buffers
// smaller than, equal to, and larger than the token count: the
// concatenation must be invariant.
func TestTokenSourceBatchBoundaries(t *testing.T) {
	const input = "one two three four five six seven"
	want, _, err := ReadTokens(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	for _, bufLen := range []int{1, 2, 3, 7, 8, 64} {
		src := NewTokenSource(strings.NewReader(input), 0)
		var got []core.Item
		buf := make([]core.Item, bufLen)
		for {
			n := src.NextBatch(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if src.Err() != nil {
			t.Fatalf("buf=%d: %v", bufLen, src.Err())
		}
		if len(got) != len(want) {
			t.Fatalf("buf=%d: %d items, want %d", bufLen, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("buf=%d: item[%d] differs", bufLen, i)
			}
		}
		if src.Names() != nil {
			t.Fatalf("buf=%d: names captured despite maxNames=0", bufLen)
		}
	}
}

// TestTokenSourceNameCap: with a positive maxNames the spelling map
// stops growing at the cap (items keep flowing), and a negative cap is
// unbounded.
func TestTokenSourceNameCap(t *testing.T) {
	const input = "a b c d e f g h"
	src := NewTokenSource(strings.NewReader(input), 3)
	buf := make([]core.Item, 32)
	n := src.NextBatch(buf)
	if n != 8 {
		t.Fatalf("NextBatch = %d items, want 8 (cap must not drop items)", n)
	}
	if got := len(src.Names()); got != 3 {
		t.Fatalf("names has %d entries, want cap 3", got)
	}
	for _, tok := range []string{"a", "b", "c"} {
		if src.Names()[core.HashString(tok)] != tok {
			t.Fatalf("first-seen token %q missing from capped names", tok)
		}
	}
	unb := NewTokenSource(strings.NewReader(input), -1)
	unb.NextBatch(buf)
	if got := len(unb.Names()); got != 8 {
		t.Fatalf("unbounded names has %d entries, want 8", got)
	}
}

// TestTokenSourceLongToken checks tokens beyond the scanner's initial
// buffer still come through, and tokens beyond the hard cap surface as
// an error, not a silent split.
func TestTokenSourceLongToken(t *testing.T) {
	long := strings.Repeat("x", 200_000)
	items, names, err := ReadTokens(strings.NewReader("pre " + long + " post"))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 || names[items[1]] != long {
		t.Fatalf("long token did not round-trip (%d items)", len(items))
	}

	tooLong := strings.Repeat("y", maxToken+1)
	if _, _, err := ReadTokens(strings.NewReader(tooLong)); err == nil {
		t.Fatal("token beyond maxToken did not error")
	}
}

// TestRawSourceRoundTrip pins AppendRaw → RawSource as an identity, at
// several batch lengths.
func TestRawSourceRoundTrip(t *testing.T) {
	items := []core.Item{0, 1, 0xdeadbeef, 1 << 63, ^core.Item(0), 42, 42, 42}
	wire := AppendRaw(nil, items)
	if len(wire) != 8*len(items) {
		t.Fatalf("wire length %d, want %d", len(wire), 8*len(items))
	}
	for _, bufLen := range []int{1, 3, len(items), 64} {
		src := NewRawSource(bytes.NewReader(wire))
		var got []core.Item
		buf := make([]core.Item, bufLen)
		for {
			n := src.NextBatch(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if src.Err() != nil {
			t.Fatalf("buf=%d: %v", bufLen, src.Err())
		}
		if len(got) != len(items) {
			t.Fatalf("buf=%d: %d items, want %d", bufLen, len(got), len(items))
		}
		for i := range items {
			if got[i] != items[i] {
				t.Fatalf("buf=%d: item[%d] = %#x, want %#x", bufLen, i, uint64(got[i]), uint64(items[i]))
			}
		}
	}
}

// TestRawSourceTornItem: a stream ending mid-item delivers the complete
// prefix and surfaces ErrUnexpectedEOF.
func TestRawSourceTornItem(t *testing.T) {
	wire := AppendRaw(nil, []core.Item{7, 8})
	src := NewRawSource(bytes.NewReader(wire[:len(wire)-3]))
	buf := make([]core.Item, 8)
	if n := src.NextBatch(buf); n != 1 || buf[0] != 7 {
		t.Fatalf("NextBatch = %d (first %#x), want the 1 complete item", n, uint64(buf[0]))
	}
	if !errors.Is(src.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("Err() = %v, want ErrUnexpectedEOF", src.Err())
	}
	if n := src.NextBatch(buf); n != 0 {
		t.Fatalf("NextBatch after error = %d, want 0", n)
	}
}

// TestRawSourceEmpty: zero bytes is a clean empty stream.
func TestRawSourceEmpty(t *testing.T) {
	src := NewRawSource(bytes.NewReader(nil))
	if n := src.NextBatch(make([]core.Item, 4)); n != 0 {
		t.Fatalf("NextBatch on empty input = %d, want 0", n)
	}
	if src.Err() != nil {
		t.Fatalf("Err on empty input = %v, want nil", src.Err())
	}
}
