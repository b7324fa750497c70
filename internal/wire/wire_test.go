package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func TestReaderReadsLittleEndian(t *testing.T) {
	data := []byte("AB01")
	data = append(data, 7)
	data = binary.LittleEndian.AppendUint16(data, 0x1234)
	data = binary.LittleEndian.AppendUint32(data, 0xDEADBEEF)
	data = binary.LittleEndian.AppendUint64(data, 1<<63|5)
	data = binary.LittleEndian.AppendUint64(data, uint64(1<<64-3)) // -3
	data = append(data, "xyz"...)
	r := NewReader(data)
	r.Magic("AB01")
	if u8, u16, u32, u64, i64 := r.U8(), r.U16(), r.U32(), r.U64(), r.I64(); u8 != 7 || u16 != 0x1234 ||
		u32 != 0xDEADBEEF || u64 != 1<<63|5 || i64 != -3 {
		t.Fatalf("read %d %#x %#x %#x %d", u8, u16, u32, u64, i64)
	}
	if r.Len() != 3 || string(r.Bytes(3)) != "xyz" {
		t.Fatal("Bytes did not return the tail")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderHugeLengthLatches: a length field near 2^64 must fail the
// read, not wrap into a negative slice bound, and the first failure
// sticks with its offset while later reads return zero values.
func TestReaderHugeLengthLatches(t *testing.T) {
	r := NewReader([]byte("0123456789"))
	r.Bytes(2)
	if b := r.Bytes(1<<64 - 16); b != nil {
		t.Fatalf("huge read returned %d bytes", len(b))
	}
	first := r.Err()
	if first == nil || !strings.Contains(first.Error(), "offset 2") {
		t.Fatalf("error %v, want a truncation at offset 2", first)
	}
	if r.U64() != 0 || r.U8() != 0 || r.Bytes(0) != nil || r.Done() != first {
		t.Fatal("reads after a failure must return zero values and keep the first error")
	}
}

func TestReaderRejectsTrailingAndWrongMagic(t *testing.T) {
	r := NewReader([]byte("AB01\x00"))
	r.Magic("AB01")
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "1 trailing") {
		t.Fatalf("Done = %v, want one trailing byte", err)
	}
	for _, data := range []string{"", "AB", "AB02"} {
		r := NewReader([]byte(data))
		if r.Magic("AB01"); r.Err() == nil {
			t.Fatalf("%q passed the AB01 magic check", data)
		}
	}
}

// TestReaderUvarint: a varint reads like encoding/binary writes it, and
// a malformed one fails like a short fixed-width read, latching an
// error that names its offset while later reads return zero values.
func TestReaderUvarint(t *testing.T) {
	ok := binary.AppendUvarint(binary.AppendUvarint([]byte{0xAA}, 300), 1<<64-1)
	r := NewReader(ok)
	if u8, a, b := r.U8(), r.Uvarint(), r.Uvarint(); u8 != 0xAA || a != 300 || b != 1<<64-1 || r.Done() != nil {
		t.Fatalf("read %#x %d %d, err %v", u8, a, b, r.Err())
	}
	eleven := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"truncated", []byte{0xAA, 0x80, 0x80}, "truncated at offset 1"},
		{"empty", []byte{0xAA}, "truncated at offset 1"},
		{"11 bytes", append([]byte{0xAA}, eleven...), "offset 1 overflows"},
		{"10 bytes past 2^64", append(append([]byte{0xAA}, bytes.Repeat([]byte{0xFF}, 9)...), 0x02), "offset 1 overflows"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(c.data)
			r.U8()
			if v := r.Uvarint(); v != 0 {
				t.Fatalf("malformed varint read as %d", v)
			}
			first := r.Err()
			if first == nil || !strings.Contains(first.Error(), c.want) {
				t.Fatalf("error %v, want one containing %q", first, c.want)
			}
			if r.Uvarint() != 0 || r.U8() != 0 || r.Done() != first {
				t.Fatal("reads after a failure must return zero values and keep the first error")
			}
		})
	}
}
