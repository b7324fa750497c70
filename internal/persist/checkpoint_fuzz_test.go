package persist

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint decoder,
// once as given and once with the CRC trailer recomputed, so mutations
// also reach the parser behind the checksum. decodeCheckpoint must
// never panic, and a checkpoint it accepts, encoded again, must decode
// to the same values. Values, not bytes: the encoder picks the magic
// from the decoded manifest, so the bytes need not match.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(encodeCheckpoint(checkpoint{algo: "SSH", n: 3, walSeq: 2, blobs: [][]byte{{1, 2, 3}}}))
	f.Add(encodeCheckpoint(checkpoint{algo: "CMH", n: 10, walSeq: 5, blobs: [][]byte{{4}, {}}}))
	f.Add(encodeCheckpoint(checkpoint{algo: "SSH", n: 9, walSeq: 4,
		tenants: []TenantState{{NS: "eu", K: 11, N: 9, Blob: []byte{7, 7}}, {NS: "", K: 101, Blob: []byte{}}}}))
	f.Add(encodeCheckpoint(checkpoint{algo: "SSH", tenants: []TenantState{}}))
	f.Add([]byte(ckptMagic2 + "\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCheckpointRoundTrip(t, data)
		if len(data) >= len(ckptMagic)+4 {
			fixed := append([]byte(nil), data...)
			body := fixed[len(ckptMagic) : len(fixed)-4]
			binary.LittleEndian.PutUint32(fixed[len(fixed)-4:], crc32.Checksum(body, crcTable))
			checkCheckpointRoundTrip(t, fixed)
		}
	})
}

func checkCheckpointRoundTrip(t *testing.T, data []byte) {
	c, err := decodeCheckpoint(data)
	if err != nil {
		return
	}
	again, err := decodeCheckpoint(encodeCheckpoint(c))
	if err != nil {
		t.Fatalf("decoded checkpoint %+v re-encodes to bytes that do not decode: %v", c, err)
	}
	if !reflect.DeepEqual(c, again) {
		t.Fatalf("checkpoint round trip changed it:\n got %+v\nwant %+v", again, c)
	}
}
