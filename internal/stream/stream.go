// Package stream defines the stream data model shared by the generators,
// the algorithms, and the command-line tools, together with a compact
// binary on-disk format so workloads can be generated once (freqgen) and
// replayed many times (freqtop, the harness).
//
// File format (little-endian):
//
//	offset  size  field
//	0       8     magic "SFSTRM01"
//	8       8     item count n (uint64)
//	16      8     metadata length m (uint64)
//	24      m     metadata (UTF-8, free-form description)
//	24+m    8n    items (uint64 each)
package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"streamfreq/internal/core"
)

// Magic identifies a stream file.
const Magic = "SFSTRM01"

// BatchSource yields stream items many at a time into a caller-owned
// buffer, the read-side counterpart of core.BatchUpdater: a replay loop
// that couples NextBatch to core.UpdateAll moves items from a file or a
// request body into a summary with no per-item interface calls and no
// allocation. Reader, TokenSource and RawSource implement it. NextBatch fills up to len(buf) items into buf and
// returns how many it wrote; 0 means the source is exhausted.
type BatchSource interface {
	NextBatch(buf []core.Item) int
}

// Write writes a stream file containing items with the given metadata.
func Write(w io.Writer, meta string, items []core.Item) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(Magic); err != nil {
		return fmt.Errorf("stream: writing magic: %w", err)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(len(items)))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(meta)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("stream: writing header: %w", err)
	}
	if _, err := bw.WriteString(meta); err != nil {
		return fmt.Errorf("stream: writing metadata: %w", err)
	}
	var buf [8]byte
	for _, it := range items {
		binary.LittleEndian.PutUint64(buf[:], uint64(it))
		if _, err := bw.Write(buf[:]); err != nil {
			return fmt.Errorf("stream: writing items: %w", err)
		}
	}
	return bw.Flush()
}

// Reader decodes a stream file incrementally. It validates the header on
// construction and then serves items through NextBatch, decoding into a
// reused byte buffer sized to the caller's batch — so replaying a stream
// file costs O(batch) memory however long the file is. It implements
// BatchSource.
type Reader struct {
	br        *bufio.Reader
	meta      string
	total     uint64
	remaining uint64
	raw       []byte // reused little-endian staging buffer
	readErr   error  // first decode failure, surfaced by Err
}

// NewReader parses the header of a stream file produced by Write,
// bounds-checking the metadata length against sane limits before
// allocating, and returns a Reader positioned at the first item.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("stream: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("stream: bad magic %q (not a stream file?)", magic)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("stream: reading header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[0:8])
	m := binary.LittleEndian.Uint64(hdr[8:16])
	const maxMeta = 1 << 20
	if m > maxMeta {
		return nil, fmt.Errorf("stream: metadata length %d exceeds limit %d", m, maxMeta)
	}
	const maxItems = 1 << 33 // 64 GiB of items; guards corrupt headers
	if n > maxItems {
		return nil, fmt.Errorf("stream: item count %d exceeds limit %d", n, maxItems)
	}
	mb := make([]byte, m)
	if _, err := io.ReadFull(br, mb); err != nil {
		return nil, fmt.Errorf("stream: reading metadata: %w", err)
	}
	return &Reader{br: br, meta: string(mb), total: n, remaining: n}, nil
}

// Meta returns the file's free-form metadata string.
func (r *Reader) Meta() string { return r.meta }

// Len returns the total number of items the file declares.
func (r *Reader) Len() int { return int(r.total) }

// err records a decode failure and halts the reader.
func (r *Reader) err(e error) {
	r.readErr = e
	r.remaining = 0
}

// NextBatch implements BatchSource, decoding up to len(buf) items into
// buf. It returns 0 at end of file. On a short or failing read it
// returns what was decoded before the failure (possibly 0) and the
// error surfaces through Err; subsequent calls return 0, so replay
// loops stay a two-line for loop.
//
// The staging buffer is capped: however large buf is, the Reader never
// holds more than maxStage items' worth of raw bytes, so a caller that
// drains a whole file into one slice still reads at O(maxStage) extra
// memory.
func (r *Reader) NextBatch(buf []core.Item) int {
	want := uint64(len(buf))
	if want > r.remaining {
		want = r.remaining
	}
	if want == 0 {
		return 0
	}
	const maxStage = 1 << 16 // items per raw read: 512 KiB
	done := uint64(0)
	for done < want {
		n := want - done
		if n > maxStage {
			n = maxStage
		}
		need := int(n) * 8
		if cap(r.raw) < need {
			r.raw = make([]byte, need)
		}
		raw := r.raw[:need]
		if _, e := io.ReadFull(r.br, raw); e != nil {
			r.err(fmt.Errorf("stream: reading item %d of %d: %w",
				r.total-r.remaining+done, r.total, e))
			return int(done)
		}
		out := buf[done : done+n]
		for i := range out {
			out[i] = core.Item(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		done += n
	}
	r.remaining -= done
	return int(done)
}

// Err returns the first item-decoding error encountered by NextBatch,
// if any. A Reader that was drained cleanly returns nil.
func (r *Reader) Err() error { return r.readErr }

// Read parses a whole stream file produced by Write, materializing every
// item. It is NewReader + a full drain; callers that can process the
// stream incrementally should use NewReader and NextBatch instead.
func Read(r io.Reader) (meta string, items []core.Item, err error) {
	sr, err := NewReader(r)
	if err != nil {
		return "", nil, err
	}
	items = make([]core.Item, sr.Len())
	got := 0
	for got < len(items) {
		n := sr.NextBatch(items[got:])
		if n == 0 {
			break
		}
		got += n
	}
	if err := sr.Err(); err != nil {
		return "", nil, err
	}
	return sr.Meta(), items, nil
}
