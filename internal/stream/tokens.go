package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"streamfreq/internal/core"
)

// Text and raw-binary ingest sources, shared by the CLIs (freqtop -text)
// and the freqd serving daemon's POST /ingest endpoint. Both implement
// BatchSource so they plug straight into the batched replay loop
// (NextBatch → core.UpdateAll), and surface decode failures through Err
// like the stream-file Reader.

// TokenSource reads whitespace-separated text tokens, hashing each to a
// 64-bit Item with core.HashString. It can also remember the first
// spelling seen for each item — bounded, so a high-cardinality stream
// cannot balloon the map — letting reports print tokens instead of
// hashes (freqtop's -text output, freqd's /topk labels).
type TokenSource struct {
	sc       *bufio.Scanner
	names    map[core.Item]string
	maxNames int
}

// maxToken bounds a single token; longer tokens surface as
// bufio.ErrTooLong through Err rather than being split silently.
const maxToken = 1 << 20

// NewTokenSource returns a TokenSource over r. maxNames bounds the
// item→token spelling map: 0 disables capture, a negative value means
// unbounded (offline CLIs that materialize the stream anyway), and a
// positive value stops recording new spellings once that many distinct
// tokens are held — long-running servers pass their label-table budget
// so one hostile request cannot allocate beyond it.
func NewTokenSource(r io.Reader, maxNames int) *TokenSource {
	sc := bufio.NewScanner(r)
	// No initial buffer: the scanner allocates a small one on its first
	// read and doubles it, up to maxToken, only for a token that does
	// not fit.
	sc.Buffer(nil, maxToken)
	sc.Split(bufio.ScanWords)
	t := &TokenSource{sc: sc, maxNames: maxNames}
	if maxNames != 0 {
		t.names = make(map[core.Item]string)
	}
	return t
}

// NextBatch implements BatchSource: it fills buf with the next hashed
// tokens and returns how many it wrote; 0 means the input is exhausted
// (or failed — check Err).
func (t *TokenSource) NextBatch(buf []core.Item) int {
	n := 0
	for n < len(buf) && t.sc.Scan() {
		tok := t.sc.Text()
		it := core.HashString(tok)
		buf[n] = it
		n++
		if t.names != nil && (t.maxNames < 0 || len(t.names) < t.maxNames) {
			if _, ok := t.names[it]; !ok {
				t.names[it] = tok
			}
		}
	}
	return n
}

// Err returns the first read failure, nil after a clean drain.
func (t *TokenSource) Err() error { return t.sc.Err() }

// Names returns the item→token spelling map (nil when capture is
// disabled). Valid once reading is done; shared, not copied.
func (t *TokenSource) Names() map[core.Item]string { return t.names }

// ReadTokens materializes every token of r: the hashed item sequence and
// the (unbounded) spelling map. It is NewTokenSource + a full drain;
// callers that can process incrementally should use the source directly.
func ReadTokens(r io.Reader) ([]core.Item, map[core.Item]string, error) {
	src := NewTokenSource(r, -1)
	var items []core.Item
	buf := make([]core.Item, core.DefaultBatchSize)
	for {
		n := src.NextBatch(buf)
		if n == 0 {
			break
		}
		items = append(items, buf[:n]...)
	}
	if err := src.Err(); err != nil {
		return nil, nil, err
	}
	return items, src.Names(), nil
}

// RawSource decodes a bare little-endian uint64 item stream — no magic,
// no length header, just 8 bytes per item until EOF. This is freqd's
// binary wire format for continuous ingest, where the total length is
// unknown when transmission starts (unlike the SFSTRM01 file format,
// whose header declares it). It reads through one small staging array,
// so an ingest request costs the same few hundred bytes whatever its
// body's size.
type RawSource struct {
	r       io.Reader
	raw     [512]byte // one read: up to 64 items
	readErr error
}

// NewRawSource returns a RawSource over r.
func NewRawSource(r io.Reader) *RawSource { return &RawSource{r: r} }

// NextBatch implements BatchSource, decoding up to len(buf) items. It
// returns 0 at EOF. A stream that ends mid-item (1–7 trailing bytes) is
// corrupt: the partial item is dropped and the failure surfaces through
// Err.
func (s *RawSource) NextBatch(buf []core.Item) int {
	n := 0
	for n < len(buf) && s.readErr == nil {
		chunk := s.raw[:8*min(len(buf)-n, len(s.raw)/8)]
		got, err := io.ReadFull(s.r, chunk)
		for b := chunk[:got/8*8]; len(b) > 0; b = b[8:] {
			buf[n] = core.Item(binary.LittleEndian.Uint64(b))
			n++
		}
		switch {
		case err == nil:
		case err == io.EOF || err == io.ErrUnexpectedEOF && got%8 == 0:
			return n // the body ended on an item boundary
		default:
			s.readErr = err // ErrUnexpectedEOF (torn item) or a real read error
		}
	}
	return n
}

// Err returns the first decode failure (a torn trailing item or an
// underlying read error); nil after a clean drain.
func (s *RawSource) Err() error { return s.readErr }

// AppendRaw appends the little-endian wire encoding of items to dst and
// returns it — the encoder matching RawSource, used by clients posting
// binary batches to freqd and by the write-ahead log's record payloads
// (internal/persist).
func AppendRaw(dst []byte, items []core.Item) []byte {
	var raw [8]byte
	for _, it := range items {
		binary.LittleEndian.PutUint64(raw[:], uint64(it))
		dst = append(dst, raw[:]...)
	}
	return dst
}

// DecodeRaw decodes a complete in-memory AppendRaw payload into items,
// appending to dst. Unlike RawSource — which streams unbounded wire
// input and tolerates a torn tail by surfacing it through Err — DecodeRaw
// is for framed payloads whose length is already known and trusted
// (a CRC-verified WAL record): a length that is not a whole number of
// items is corruption, reported as an error with nothing decoded.
func DecodeRaw(dst []core.Item, b []byte) ([]core.Item, error) {
	if len(b)%8 != 0 {
		return dst, fmt.Errorf("stream: raw payload of %d bytes is not a whole number of items", len(b))
	}
	for ; len(b) > 0; b = b[8:] {
		dst = append(dst, core.Item(binary.LittleEndian.Uint64(b)))
	}
	return dst, nil
}
