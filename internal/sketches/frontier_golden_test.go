package sketches

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/zipf"
)

const frontierGoldenPath = "testdata/frontier_golden.json"

// frontierGolden digests one (hierarchy, threshold) report pair: the
// Query answer and the HeavyPrefixes answer, each as its length and the
// SHA-256 of its canonical text.
type frontierGolden struct {
	Case                      string
	QueryLen, PrefixesLen     int
	QueryDigest, PrefixDigest string
}

func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFrontierWalkGolden pins Query and HeavyPrefixes — two views of one
// frontier walk — to recorded reports for Count-Min and Count-Sketch
// hierarchies across universe widths, branching factors and thresholds
// from the clamped 0 to above every item.
func TestFrontierWalkGolden(t *testing.T) {
	g, err := zipf.NewGenerator(128, 1.3, 0xF407, true)
	if err != nil {
		t.Fatal(err)
	}
	stream := g.Stream(100_000)
	var got []frontierGolden
	for _, algo := range []string{"CMH", "CSH"} {
		mk := NewCountMinHierarchy
		if algo == "CSH" {
			mk = NewCountSketchHierarchy
		}
		for _, ubits := range []uint{16, 32, 64} {
			for _, bits := range []uint{4, 8} {
				h, err := mk(HierarchyConfig{Depth: 4, Width: 4096, Bits: bits, UniverseBits: ubits, Seed: 31})
				if err != nil {
					t.Fatal(err)
				}
				core.UpdateBatches(h, stream, 0)
				// The last case caps the frontier, so the truncation
				// path is pinned too.
				for i, th := range []int64{0, 1, 500, 2000, 20000, 1} {
					name := fmt.Sprintf("%s/ubits=%d/bits=%d/threshold=%d", algo, ubits, bits, th)
					if i == 5 {
						h.maxCandidates = 40
						name += "/cap=40"
					}
					q, p := h.Query(th), h.HeavyPrefixes(th)
					ql := make([]string, len(q))
					for i, ic := range q {
						ql[i] = fmt.Sprintf("%d %d", ic.Item, ic.Count)
					}
					pl := make([]string, len(p))
					for i, pc := range p {
						pl[i] = fmt.Sprintf("%d %d %d %d %t", pc.Prefix, pc.Level, pc.Count, pc.Residual, pc.HHH)
					}
					got = append(got, frontierGolden{
						Case:     name,
						QueryLen: len(q), PrefixesLen: len(p),
						QueryDigest: digest(ql), PrefixDigest: digest(pl),
					})
				}
			}
		}
	}
	raw, err := os.ReadFile(frontierGoldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		// A deliberate change to either report deletes the file to
		// rewrite it.
		enc, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(frontierGoldenPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it, then rerun", frontierGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []frontierGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, test builds %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("report differs from the golden:\n got  %+v\n want %+v", got[i], want[i])
		}
	}
}
