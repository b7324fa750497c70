package sketches

import (
	"bytes"
	"fmt"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/zipf"
)

func TestHierarchyBatchMatchesScalar(t *testing.T) {
	for name, mk := range map[string]func(HierarchyConfig) (*Hierarchical, error){
		"CMH": NewCountMinHierarchy,
		"CSH": NewCountSketchHierarchy,
	} {
		for _, ubits := range []uint{32, 64} {
			checkHierarchyBatch(t, fmt.Sprintf("%s/universe=%d", name, ubits), mk,
				HierarchyConfig{Depth: 4, Width: 512, Bits: 8, UniverseBits: ubits, Seed: 9})
		}
	}
}

// checkHierarchyBatch feeds one Zipf stream through the scalar Update
// loop and, in uneven batches, through UpdateBatch, and requires the two
// encodings to match byte for byte.
func checkHierarchyBatch(t *testing.T, name string, mk func(HierarchyConfig) (*Hierarchical, error), cfg HierarchyConfig) {
	t.Helper()
	g, err := zipf.NewGenerator(4096, 1.1, 17, true)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]core.Item, 30000)
	for i := range items {
		items[i] = g.Next()
	}
	scalar, err := mk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := mk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		scalar.Update(it, 1)
	}
	// Uneven batch lengths, including a length-0 call.
	rest := items
	for _, cut := range []int{1, 0, 4095, 7, 10000} {
		if cut > len(rest) {
			cut = len(rest)
		}
		batched.UpdateBatch(rest[:cut])
		rest = rest[cut:]
	}
	batched.UpdateBatch(rest)
	a, err := scalar.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := batched.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("%s: batched ingest is not bit-identical to scalar ingest", name)
	}
}

// buildPrefixTruth aggregates an exact per-level count table for a
// 32-bit universe with 8-bit branching.
func buildPrefixTruth(items []core.Item, levels int, bits uint) []map[uint64]int64 {
	truth := make([]map[uint64]int64, levels)
	for j := range truth {
		truth[j] = map[uint64]int64{}
	}
	for _, it := range items {
		for j := 0; j < levels; j++ {
			truth[j][uint64(it)>>(uint(j)*bits)]++
		}
	}
	return truth
}

func TestCMHHeavyPrefixesPerfectRecall(t *testing.T) {
	const n = 60000
	g, err := zipf.NewGenerator(1<<16, 1.2, 23, true)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]core.Item, n)
	for i := range items {
		// The generator hashes items over 64 bits; fold into the 32-bit
		// universe the hierarchy is configured for so the exact truth
		// table sees the same keys the sketch does.
		items[i] = g.Next() & 0xffffffff
	}
	h, err := NewCountMinHierarchy(HierarchyConfig{Depth: 4, Width: 2048, Bits: 8, UniverseBits: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h.UpdateBatch(items)
	threshold := int64(0.002 * n)
	report := h.HeavyPrefixes(threshold)
	got := make([]map[core.Item]int64, h.Levels())
	for j := range got {
		got[j] = map[core.Item]int64{}
	}
	lastLevel := h.Levels() - 1
	for i, pc := range report {
		if pc.Level < 0 || pc.Level >= h.Levels() {
			t.Fatalf("report %d: level %d out of range", i, pc.Level)
		}
		if pc.Level > lastLevel {
			t.Fatal("report not ordered coarsest level first")
		}
		lastLevel = pc.Level
		got[pc.Level][pc.Prefix] = pc.Count
		if pc.Count < threshold {
			t.Errorf("reported prefix %x at level %d below threshold: %d", pc.Prefix, pc.Level, pc.Count)
		}
		if pc.HHH != (pc.Residual >= threshold) {
			t.Errorf("prefix %x level %d: HHH flag inconsistent with residual %d", pc.Prefix, pc.Level, pc.Residual)
		}
	}
	truth := buildPrefixTruth(items, h.Levels(), h.Bits())
	for j := 0; j < h.Levels(); j++ {
		for p, c := range truth[j] {
			if c >= threshold {
				est, ok := got[j][core.Item(p)]
				if !ok {
					t.Errorf("level %d: missed heavy prefix %x (count %d)", j, p, c)
					continue
				}
				// Count-Min hierarchies never underestimate.
				if est < c {
					t.Errorf("level %d prefix %x: estimate %d below true count %d", j, p, est, c)
				}
			}
		}
	}
}

func TestHeavyPrefixesResidualDiscount(t *testing.T) {
	// One /8-style prefix entirely explained by a single heavy child:
	// its residual must collapse to ~0, while a prefix with spread
	// children beneath threshold keeps its full count as residual.
	h, err := NewCountMinHierarchy(HierarchyConfig{Depth: 4, Width: 4096, Bits: 8, UniverseBits: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const heavy = 5000
	// Item 0x0101: parent prefix 0x01 fully explained by this child.
	h.Update(core.Item(0x0101), heavy)
	// Prefix 0x02: 256 children with ~40 each — parent heavy, no heavy child.
	for c := uint64(0); c < 256; c++ {
		h.Update(core.Item(0x0200|c), 40)
	}
	threshold := int64(1000)
	byKey := map[[2]uint64]PrefixCount{}
	for _, pc := range h.HeavyPrefixes(threshold) {
		byKey[[2]uint64{uint64(pc.Level), uint64(pc.Prefix)}] = pc
	}
	parent1, ok := byKey[[2]uint64{1, 0x01}]
	if !ok {
		t.Fatal("prefix 0x01 not reported at level 1")
	}
	if parent1.HHH {
		t.Errorf("prefix 0x01 flagged HHH with residual %d; its child explains it", parent1.Residual)
	}
	parent2, ok := byKey[[2]uint64{1, 0x02}]
	if !ok {
		t.Fatal("prefix 0x02 not reported at level 1")
	}
	if !parent2.HHH {
		t.Errorf("prefix 0x02 not flagged HHH (residual %d); no reported child explains it", parent2.Residual)
	}
	child, ok := byKey[[2]uint64{0, 0x0101}]
	if !ok {
		t.Fatal("item 0x0101 not reported at level 0")
	}
	if !child.HHH || child.Residual != child.Count {
		t.Errorf("level-0 item residual %d != count %d", child.Residual, child.Count)
	}
}
