package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/testutil"
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

// TestCheckpointGolden pins SFCKPT01 and SFCKPT02 to the bytes recorded
// when SS02 replaced SS01 as their blob encoding: a two-shard
// manifest, a tenant manifest whose default namespace is empty, and an
// empty table's manifest. Each golden must decode and re-encode byte
// for byte. The checkpoints an earlier build wrote, with SS01 blobs,
// must still decode, and re-encode, blob by blob, to the current
// golden of the same state.
func TestCheckpointGolden(t *testing.T) {
	blob := func(k int, items ...core.Item) ([]byte, int64) {
		s := counters.NewSpaceSavingHeap(k)
		for i := 0; i < 40; i++ {
			s.UpdateBatch(items)
		}
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b, s.N()
	}
	s0, n0 := blob(4, 1, 2, 3, 2, 9)
	s1, n1 := blob(4, 7, 7, 8)
	eu, nEU := blob(6, 5, 4, 5, 3, 5, 11, 12)
	def, _ := blob(3)
	manifests := []struct {
		name string
		c    checkpoint
	}{
		{"SFCKPT01", checkpoint{algo: "SSH", n: n0 + n1, walSeq: 7, blobs: [][]byte{s0, s1}}},
		{"SFCKPT02-tenants", checkpoint{algo: "SSH", n: nEU, walSeq: 3,
			tenants: []TenantState{{NS: "", K: 3, Blob: def}, {NS: "eu", K: 6, N: nEU, Blob: eu}}}},
		{"SFCKPT02-empty", checkpoint{algo: "SSH", walSeq: 1, tenants: []TenantState{}}},
	}
	var got []testutil.Golden
	for _, m := range manifests {
		got = append(got, testutil.Golden{Name: m.name, Blob: encodeCheckpoint(m.c)})
	}
	current := map[string][]byte{}
	for _, w := range testutil.CheckGolden(t, "testdata/checkpoint_golden.json", got) {
		current[w.Name] = w.Blob
		c, err := decodeCheckpoint(w.Blob)
		if err != nil {
			t.Errorf("%s: golden does not decode: %v", w.Name, err)
			continue
		}
		if again := encodeCheckpoint(c); !bytes.Equal(again, w.Blob) {
			t.Errorf("%s: golden re-encodes to different bytes (%d vs %d)", w.Name, len(again), len(w.Blob))
		}
	}
	testutil.CheckLegacyGolden(t, "testdata/checkpoint_golden_ss01.json", current, func(l testutil.Golden) ([]byte, error) {
		c, err := decodeCheckpoint(l.Blob)
		if err != nil {
			return nil, err
		}
		reencode := func(b []byte) ([]byte, error) {
			s, err := counters.DecodeSpaceSavingHeap(b)
			if err != nil {
				return nil, err
			}
			return s.MarshalBinary()
		}
		for i := range c.blobs {
			if c.blobs[i], err = reencode(c.blobs[i]); err != nil {
				return nil, err
			}
		}
		for i := range c.tenants {
			if c.tenants[i].Blob, err = reencode(c.tenants[i].Blob); err != nil {
				return nil, err
			}
		}
		return encodeCheckpoint(c), nil
	})
}
