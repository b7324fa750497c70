package streamfreq

// Fuzz wall for the coordinator's trust boundary: MergeEncoded consumes
// blobs that arrive over the network from machines the coordinator does
// not control. Arbitrary byte pairs must never panic — forged headers,
// truncations, and bit flips come back as errors — and two blobs that
// individually decode to different algorithms must always be refused
// (silently mixing estimators would corrupt every answer downstream).

import (
	"testing"

	"streamfreq/internal/zipf"
)

func FuzzMergeEncoded(f *testing.F) {
	// Seed with genuine encodings of every registry algorithm (so the
	// fuzzer starts from deep-in-the-format corpus entries), a few
	// cross-algorithm pairs, and classic corruptions.
	var blobs [][]byte
	for _, algo := range Algorithms() {
		s := MustNew(algo, 0.02, 7)
		UpdateAll(s, zipf.Sequential(2_000))
		m, ok := s.(interface{ MarshalBinary() ([]byte, error) })
		if !ok {
			f.Fatalf("%s has no MarshalBinary", algo)
		}
		blob, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	for i, b := range blobs {
		f.Add(b, blobs[(i+1)%len(blobs)]) // mixed-algorithm pairs
		f.Add(b, b)                       // self-merge
		if len(b) > 8 {
			f.Add(b[:len(b)/2], b) // truncated left operand
			flipped := append([]byte{}, b...)
			flipped[len(flipped)-3] ^= 0x40
			f.Add(b, flipped) // bit flip in the right operand
		}
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte("SS01"), []byte("FQ01"))
	f.Add([]byte("SS02"), []byte("SS01"))
	f.Add([]byte("FQ02"), []byte("LC02"))
	over := counterBlob("SS01", []uint64{4, 10, 1}, 7, 1<<62, 0) // a count above n
	f.Add(over, over)
	// Each summary in its 02 and its 01 encoding, which merge like two
	// 02 blobs, then a count above n in the 02 one: hand-built states of
	// k = 4 (Lossy Counting at ε = 0.5) over n = 10.
	for _, magic := range []string{"FQ", "SS", "LC", "SL"} {
		h := counterHead(magic, 10, 2)
		same := counterBlob(magic+"02", h, 7, 4, 0, 9, 6, 0)
		f.Add(same, counterBlob(magic+"01", h, 7, 4, 0, 9, 6, 0))
		f.Add(counterBlob(magic+"02", h, 7, 1<<62, 0, 9, 6, 0), same)
	}

	// The windowed format rides the same trust boundary: a genuine WN01
	// pair, a windowed/flat mix, and a geometry mismatch seed the corpus.
	win := mustWindowedSummary(64, 4, 8)
	UpdateAll(win, zipf.Sequential(500))
	winBlob, err := win.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	win2 := mustWindowedSummary(64, 2, 8)
	UpdateAll(win2, zipf.Sequential(300))
	win2Blob, err := win2.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(winBlob, winBlob)
	f.Add(winBlob, win2Blob)
	f.Add(winBlob, blobs[0])

	f.Fuzz(func(t *testing.T, a, b []byte) {
		merged, err := MergeEncoded(a, b)
		if err != nil {
			return // rejected cleanly — the only acceptable failure mode
		}
		// A successful merge must yield a usable summary, whose
		// encoding its own decoder accepts.
		_ = merged.N()
		_ = merged.Estimate(1)
		_ = merged.Query(1)
		if m, ok := merged.(interface{ MarshalBinary() ([]byte, error) }); ok {
			if blob, err := m.MarshalBinary(); err == nil {
				if _, err := Decode(blob); err != nil {
					t.Fatalf("the merged %s does not decode: %v", merged.Name(), err)
				}
			}
		}

		// If both operands decode on their own, a successful merge
		// implies they named the same algorithm.
		sa, errA := Decode(a)
		sb, errB := Decode(b)
		if errA == nil && errB == nil && sa.Name() != sb.Name() {
			t.Fatalf("MergeEncoded combined %s with %s without error", sa.Name(), sb.Name())
		}
	})
}
