package window

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"slices"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/testutil"
)

const windowedGoldenPath = "testdata/windowed_golden.json"

// windowedGolden is everything observable about one windowed scenario:
// the WN01 bytes and the answers a server reads from them.
type windowedGolden struct {
	Name      string
	Blob      []byte
	Query     map[int64][]core.ItemCount
	Estimates []int64
	Stats     Stats
}

// windowedScenarios builds the windows the golden pins: fresh, mid-block,
// many rotations, both merge orders, a young node merged into an older
// one, ingestion after a merge and after a decode, and weighted updates.
// Block length is 300 throughout, so every batch schedule below crosses
// block boundaries at different offsets.
func windowedScenarios(t *testing.T) map[string]*Windowed {
	t.Helper()
	const size, blocks, k = 1200, 4, 24
	streamA := windowedStream(t, 9_000, 0x601D)
	streamB := windowedStream(t, 6_500, 0x602D)
	feed := func(s *Windowed, items []core.Item, sizes ...int) *Windowed {
		for i := 0; len(items) > 0; i++ {
			n := sizes[i%len(sizes)]
			if n > len(items) {
				n = len(items)
			}
			s.UpdateBatch(items[:n])
			items = items[n:]
		}
		return s
	}
	out := map[string]*Windowed{
		"fresh":          mustWindowed(t, size, blocks, k),
		"mid-block":      feed(mustWindowed(t, size, blocks, k), streamA[:450], 450),
		"many-rotations": feed(mustWindowed(t, size, blocks, k), streamA, 7, 299, 301, 4096, 1),
	}
	nodeA := out["many-rotations"]
	nodeB := feed(mustWindowed(t, size, blocks, k), streamB, 1000, 33)
	young := feed(mustWindowed(t, size, blocks, k), streamB[:700], 700)

	ab := nodeA.Clone()
	if err := ab.Merge(nodeB); err != nil {
		t.Fatal(err)
	}
	ba := nodeB.Clone()
	if err := ba.Merge(nodeA); err != nil {
		t.Fatal(err)
	}
	youngOld := young.Clone()
	if err := youngOld.Merge(nodeA); err != nil {
		t.Fatal(err)
	}
	out["merged-ab"], out["merged-ba"], out["merged-young-old"] = ab, ba, youngOld
	out["merged-then-ingested"] = feed(ab.Clone(), streamB[:700], 250, 113)

	dec, err := DecodeWindowed(marshalWindowed(t, nodeB))
	if err != nil {
		t.Fatal(err)
	}
	out["decoded-then-ingested"] = feed(dec, streamA[:2000], 333)

	weighted := mustWindowed(t, size, blocks, k)
	for i, it := range streamA[:400] {
		weighted.Update(it, int64(1+i%97))
	}
	out["weighted"] = weighted
	return out
}

// goldenProbes are the items whose estimates the golden records: the
// first distinct items of both streams plus two that never occur.
func goldenProbes(t *testing.T) []core.Item {
	seen := map[core.Item]bool{}
	probes := []core.Item{0, 0xDEADBEEF}
	for _, s := range [][]core.Item{windowedStream(t, 400, 0x601D), windowedStream(t, 400, 0x602D)} {
		for _, it := range s {
			if !seen[it] && len(probes) < 120 {
				seen[it] = true
				probes = append(probes, it)
			}
		}
	}
	return probes
}

func recordWindowed(t *testing.T, name string, s *Windowed, probes []core.Item) windowedGolden {
	g := windowedGolden{Name: name, Blob: marshalWindowed(t, s), Query: map[int64][]core.ItemCount{}, Stats: s.WindowStats()}
	for _, th := range []int64{1, 30, s.WindowN() / 20} {
		g.Query[th] = s.Query(th)
	}
	for _, p := range probes {
		g.Estimates = append(g.Estimates, s.Estimate(p))
	}
	return g
}

// TestWindowedGolden pins the windowed summary to the WN01 bytes and
// the Query, Estimate and WindowStats answers of its recorded
// scenarios, so data directories and coordinators carry over unchanged.
// The WN01 bytes earlier builds wrote, with SS01 blocks, must still
// decode, and re-encode to the current golden of the same scenario.
func TestWindowedGolden(t *testing.T) {
	probes := goldenProbes(t)
	var got []windowedGolden
	scen := windowedScenarios(t)
	for _, name := range []string{"fresh", "mid-block", "many-rotations", "merged-ab", "merged-ba",
		"merged-young-old", "merged-then-ingested", "decoded-then-ingested", "weighted"} {
		got = append(got, recordWindowed(t, name, scen[name], probes))
	}
	raw, err := os.ReadFile(windowedGoldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		// A deliberate format change deletes the file to rewrite it; one
		// scenario per line keeps it diffable.
		var enc bytes.Buffer
		enc.WriteString("[\n")
		for i, g := range got {
			line, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			enc.Write(line)
			if i < len(got)-1 {
				enc.WriteByte(',')
			}
			enc.WriteByte('\n')
		}
		enc.WriteString("]\n")
		if err := os.WriteFile(windowedGoldenPath, enc.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it, then rerun", windowedGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []windowedGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d scenarios, code builds %d", len(want), len(got))
	}
	current := map[string][]byte{}
	for _, w := range want {
		current[w.Name] = w.Blob
	}
	testutil.CheckLegacyGolden(t, "testdata/windowed_golden_ss01.json", current, func(l testutil.Golden) ([]byte, error) {
		dec, err := DecodeWindowed(l.Blob)
		if err != nil {
			return nil, err
		}
		return marshalWindowed(t, dec), nil
	})
	for i, w := range want {
		g := got[i]
		if !bytes.Equal(g.Blob, w.Blob) {
			t.Errorf("%s: WN01 bytes differ from the golden (%d vs %d bytes)", w.Name, len(g.Blob), len(w.Blob))
		}
		if g.Stats != w.Stats {
			t.Errorf("%s: WindowStats = %+v, golden %+v", w.Name, g.Stats, w.Stats)
		}
		for th, wq := range w.Query {
			if gq := g.Query[th]; !slices.Equal(gq, wq) {
				t.Errorf("%s: Query(%d) = %v, golden %v", w.Name, th, gq, wq)
			}
		}
		for j, we := range w.Estimates {
			if g.Estimates[j] != we {
				t.Errorf("%s: Estimate(%d) = %d, golden %d", w.Name, probes[j], g.Estimates[j], we)
			}
		}
	}
}
