package sketches

import (
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/exact"
	"streamfreq/internal/zipf"
)

func defaultCfg(seed uint64) HierarchyConfig {
	return HierarchyConfig{Depth: 4, Width: 1024, Bits: 8, UniverseBits: 64, Seed: seed}
}

func TestHierarchyConfigValidation(t *testing.T) {
	if _, err := NewCountMinHierarchy(HierarchyConfig{Depth: 0, Width: 1}); err == nil {
		t.Error("expected error for zero depth")
	}
	if _, err := NewCountMinHierarchy(HierarchyConfig{Depth: 1, Width: 1, Bits: 20}); err == nil {
		t.Error("expected error for bits > 16")
	}
	if _, err := NewCountMinHierarchy(HierarchyConfig{Depth: 1, Width: 1, UniverseBits: 65}); err == nil {
		t.Error("expected error for universe > 64")
	}
}

func TestHierarchyLevelCount(t *testing.T) {
	h, err := NewCountMinHierarchy(HierarchyConfig{Depth: 2, Width: 64, Bits: 8, UniverseBits: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.levels) != 8 {
		t.Errorf("levels = %d, want 8", len(h.levels))
	}
	h2, _ := NewCountMinHierarchy(HierarchyConfig{Depth: 2, Width: 64, Bits: 4, UniverseBits: 32, Seed: 1})
	if len(h2.levels) != 8 {
		t.Errorf("levels = %d, want 8", len(h2.levels))
	}
	h3, _ := NewCountMinHierarchy(HierarchyConfig{Depth: 2, Width: 64, Bits: 5, UniverseBits: 32, Seed: 1})
	if len(h3.levels) != 7 { // ceil(32/5)
		t.Errorf("levels = %d, want 7", len(h3.levels))
	}
}

func TestCMHFindsAllHeavyHitters(t *testing.T) {
	const n = 80000
	g, err := zipf.NewGenerator(2000, 1.2, 61, true)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewCountMinHierarchy(defaultCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.New()
	for i := 0; i < n; i++ {
		it := g.Next()
		h.Update(it, 1)
		truth.Update(it, 1)
	}
	threshold := int64(0.005 * n)
	reported := map[core.Item]bool{}
	for _, ic := range h.Query(threshold) {
		reported[ic.Item] = true
	}
	// Count-Min never underestimates at any level, so recall must be 1.
	for _, tc := range truth.Query(threshold) {
		if !reported[tc.Item] {
			t.Errorf("CMH missed heavy item %d (count %d)", tc.Item, tc.Count)
		}
	}
}

func TestCMHEstimatesNeverUnderestimate(t *testing.T) {
	g, _ := zipf.NewGenerator(1000, 1.0, 3, true)
	h, _ := NewCountMinHierarchy(defaultCfg(5))
	truth := exact.New()
	for i := 0; i < 40000; i++ {
		it := g.Next()
		h.Update(it, 1)
		truth.Update(it, 1)
	}
	for r := 1; r <= 1000; r++ {
		it := g.ItemOfRank(r)
		if h.Estimate(it) < truth.Estimate(it) {
			t.Fatalf("CMH estimate underestimates item %d", it)
		}
	}
}

func TestCSHFindsMostHeavyHitters(t *testing.T) {
	// Count-Sketch hierarchies have two-sided error: allow a small recall
	// gap but require the bulk found.
	const n = 80000
	g, _ := zipf.NewGenerator(2000, 1.2, 62, true)
	h, err := NewCountSketchHierarchy(HierarchyConfig{Depth: 5, Width: 2048, Bits: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.New()
	for i := 0; i < n; i++ {
		it := g.Next()
		h.Update(it, 1)
		truth.Update(it, 1)
	}
	threshold := int64(0.005 * n)
	reported := map[core.Item]bool{}
	for _, ic := range h.Query(threshold) {
		reported[ic.Item] = true
	}
	tq := truth.Query(threshold)
	found := 0
	for _, tc := range tq {
		if reported[tc.Item] {
			found++
		}
	}
	if len(tq) > 0 && float64(found)/float64(len(tq)) < 0.9 {
		t.Errorf("CSH found only %d of %d heavy items", found, len(tq))
	}
}

func TestHierarchyQueryPrecisionReasonable(t *testing.T) {
	const n = 80000
	g, _ := zipf.NewGenerator(2000, 1.2, 63, true)
	h, _ := NewCountMinHierarchy(defaultCfg(9))
	truth := exact.New()
	for i := 0; i < n; i++ {
		it := g.Next()
		h.Update(it, 1)
		truth.Update(it, 1)
	}
	threshold := int64(0.005 * n)
	rep := h.Query(threshold)
	truthSet := map[core.Item]bool{}
	// Accept anything above the φ−ε boundary as a legitimate report.
	nf := float64(n)
	slack := int64(nf * 2.72 / 1024)
	for _, tc := range truth.Query(threshold - slack) {
		truthSet[tc.Item] = true
	}
	bad := 0
	for _, ic := range rep {
		if !truthSet[ic.Item] {
			bad++
		}
	}
	if len(rep) > 0 && float64(bad)/float64(len(rep)) > 0.2 {
		t.Errorf("%d of %d reported items are far below threshold", bad, len(rep))
	}
}

func TestHierarchyMergeEqualsConcatenation(t *testing.T) {
	cfg := defaultCfg(33)
	a, _ := NewCountMinHierarchy(cfg)
	b, _ := NewCountMinHierarchy(cfg)
	whole, _ := NewCountMinHierarchy(cfg)
	g, _ := zipf.NewGenerator(300, 1.1, 4, true)
	for i := 0; i < 20000; i++ {
		it := g.Next()
		if i%2 == 0 {
			a.Update(it, 1)
		} else {
			b.Update(it, 1)
		}
		whole.Update(it, 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 300; r++ {
		it := g.ItemOfRank(r)
		if a.Estimate(it) != whole.Estimate(it) {
			t.Fatal("merged hierarchy diverges from whole-stream hierarchy")
		}
	}
	if a.N() != whole.N() {
		t.Errorf("N mismatch after merge")
	}
}

func TestHierarchyMergeRejectsMismatch(t *testing.T) {
	a, _ := NewCountMinHierarchy(defaultCfg(1))
	b, _ := NewCountMinHierarchy(HierarchyConfig{Depth: 4, Width: 1024, Bits: 4, Seed: 1})
	if err := a.Merge(b); err == nil {
		t.Error("expected bits mismatch error")
	}
	c, _ := NewCountSketchHierarchy(defaultCfg(1))
	if err := a.Merge(c); err == nil {
		t.Error("expected type mismatch error")
	}
}

func TestHierarchySubtract(t *testing.T) {
	cfg := defaultCfg(44)
	a, _ := NewCountMinHierarchy(cfg)
	b, _ := NewCountMinHierarchy(cfg)
	for i := 0; i < 1000; i++ {
		a.Update(42, 1)
		b.Update(42, 1)
	}
	for i := 0; i < 500; i++ {
		a.Update(7, 1)
	}
	if err := a.Subtract(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Estimate(7); got < 400 || got > 600 {
		t.Errorf("difference estimate for item 7 = %d, want ≈ 500", got)
	}
	if a.N() != 500 {
		t.Errorf("N after subtract = %d, want 500", a.N())
	}
}

func TestHierarchySmallUniverse(t *testing.T) {
	// Universe of 16 bits with base 4: exhaustively verifiable.
	h, err := NewCountMinHierarchy(HierarchyConfig{Depth: 3, Width: 512, Bits: 2, UniverseBits: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.New()
	g, _ := zipf.NewGenerator(200, 1.5, 6, false) // ranks as IDs, fit in 16 bits
	for i := 0; i < 30000; i++ {
		it := g.Next()
		h.Update(it, 1)
		truth.Update(it, 1)
	}
	threshold := int64(300)
	reported := map[core.Item]bool{}
	for _, ic := range h.Query(threshold) {
		reported[ic.Item] = true
	}
	for _, tc := range truth.Query(threshold) {
		if !reported[tc.Item] {
			t.Errorf("missed item %d in small universe", tc.Item)
		}
	}
}

func TestHierarchyQueryThresholdClamped(t *testing.T) {
	h, _ := NewCountMinHierarchy(HierarchyConfig{Depth: 2, Width: 64, Bits: 8, UniverseBits: 16, Seed: 2})
	h.Update(3, 5)
	// threshold ≤ 0 must not enumerate the whole universe or hang.
	out := h.Query(0)
	found := false
	for _, ic := range out {
		if ic.Item == 3 {
			found = true
		}
	}
	if !found {
		t.Error("item 3 missing from clamped query")
	}
}
