// Package wire is the one reader behind the framed formats streamfreq
// decodes from the network or the disk: the summary blobs (FQ02, SS02,
// LC02, SL02, CM01, CS01, CG01, HI01, TK01, GK01, WN01, and FQ01, SS01,
// LC01 and SL01, which are read but no longer written), the tenant
// bundle (SFTB0001), the checkpoint (SFCKPT01/02) and the WAL record
// bodies. (The WAL's fixed-size segment and record headers, and the
// stream package's SFSTRM01 and raw-item codecs, read directly.)
//
// Fixed-width integers are little-endian; Uvarint reads
// encoding/binary's unsigned varint, in which the 02 counter formats
// write their headers, counts and errors. A Reader checks every read against the bytes left, in
// unsigned arithmetic, so no length field, however large, can wrap
// into a bad slice bound. The first failed read (a short one, or a
// varint past 64 bits) latches an error that names its offset, and
// every later read returns zero values, so a decoder reads a whole
// header and checks Err once. Done also rejects trailing bytes. Reads
// alias the blob and do not allocate; bounding a count before
// allocating for it stays the decoder's job.
//
// Encoders have no counterpart here: they append with encoding/binary
// into one slice of the blob's exact size, and a nested format encodes
// its parts first.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Reader decodes one blob front to back.
type Reader struct {
	data []byte
	off  int
	err  error
	name string // names the blob in errors: "blob", or the magic once checked
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data, name: "blob"} }

// Bytes returns the next n bytes, aliasing the blob, or nil once a read
// has failed.
func (r *Reader) Bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if left := uint64(len(r.data) - r.off); n > left {
		r.err = fmt.Errorf("wire: %s truncated at offset %d: %d bytes wanted, %d left", r.name, r.off, n, left)
		return nil
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Magic consumes len(m) bytes and fails the Reader unless they are m.
// Later errors name the format by m.
func (r *Reader) Magic(m string) {
	if b := r.Bytes(uint64(len(m))); r.err == nil && string(b) != m {
		r.err = fmt.Errorf("wire: not a %s blob", m)
	}
	r.name = m
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a uint16.
func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Uvarint reads an unsigned varint (encoding/binary's encoding). One
// that the blob cuts short, or that overflows 64 bits, fails the Reader
// like a short fixed-width read.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	switch {
	case n == 0:
		r.err = fmt.Errorf("wire: %s truncated at offset %d: varint runs past the last of %d bytes", r.name, r.off, len(r.data)-r.off)
		return 0
	case n < 0:
		r.err = fmt.Errorf("wire: %s varint at offset %d overflows 64 bits", r.name, r.off)
		return 0
	}
	r.off += n
	return v
}

// I64 reads an int64 stored as its two's-complement uint64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Len is the number of bytes left.
func (r *Reader) Len() int { return len(r.data) - r.off }

// Err is the first failed read's error, or nil.
func (r *Reader) Err() error { return r.err }

// Done is Err, or an error if bytes are left over.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.data) {
		r.err = fmt.Errorf("wire: %s has %d trailing bytes at offset %d", r.name, len(r.data)-r.off, r.off)
	}
	return r.err
}
