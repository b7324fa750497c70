package counters

import (
	"testing"
	"testing/quick"

	"streamfreq/internal/core"
	"streamfreq/internal/exact"
	"streamfreq/internal/zipf"
)

func TestLossyCountingValidation(t *testing.T) {
	for _, eps := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for epsilon %v", eps)
				}
			}()
			NewLossyCounting(eps, VariantLC)
		}()
	}
}

// lcBounds checks true − εN ≤ estimate ≤ true for the LC variant.
func lcBounds(t *testing.T, l *LossyCounting, truth *exact.Counter, universe []core.Item) {
	t.Helper()
	slack := int64(l.Epsilon()*float64(truth.N())) + 1
	for _, it := range universe {
		est, tru := l.Estimate(it), truth.Estimate(it)
		if est > tru {
			t.Fatalf("item %d: LC estimate %d exceeds true %d", it, est, tru)
		}
		if est < tru-slack {
			t.Fatalf("item %d: LC estimate %d below true %d − εN %d", it, est, tru, slack)
		}
	}
}

func TestLossyCountingBoundsZipf(t *testing.T) {
	g, err := zipf.NewGenerator(2000, 1.1, 55, true)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLossyCounting(0.005, VariantLC)
	truth := exact.New()
	var universe []core.Item
	for r := 1; r <= 2000; r++ {
		universe = append(universe, g.ItemOfRank(r))
	}
	for i := 0; i < 100000; i++ {
		it := g.Next()
		l.Update(it, 1)
		truth.Update(it, 1)
	}
	lcBounds(t, l, truth, universe)
}

func TestLossyCountingBoundsSequential(t *testing.T) {
	l := NewLossyCounting(0.01, VariantLC)
	truth := exact.New()
	items := zipf.Sequential(20000)
	for _, it := range items {
		l.Update(it, 1)
		truth.Update(it, 1)
	}
	lcBounds(t, l, truth, items)
	// A sequential stream leaves at most one full bucket of live entries.
	if l.EntryCount() > 200 {
		t.Errorf("sequential stream left %d live entries; pruning is broken", l.EntryCount())
	}
}

func TestLCDEstimateIsUpperBound(t *testing.T) {
	g, _ := zipf.NewGenerator(1000, 1.0, 66, true)
	lcd := NewLossyCounting(0.01, VariantLCD)
	truth := exact.New()
	const n = 50000
	for i := 0; i < n; i++ {
		it := g.Next()
		lcd.Update(it, 1)
		truth.Update(it, 1)
	}
	slack := int64(0.01*n) + 1
	for r := 1; r <= 1000; r++ {
		it := g.ItemOfRank(r)
		est, tru := lcd.Estimate(it), truth.Estimate(it)
		if est != 0 && est < tru {
			t.Errorf("item %d: LCD estimate %d below true %d (must be upper bound when tracked)", it, est, tru)
		}
		if est > tru+slack {
			t.Errorf("item %d: LCD estimate %d exceeds true + εN = %d", it, est, tru+slack)
		}
	}
}

func TestLossyCountingRecall(t *testing.T) {
	// Every item with count ≥ φN must be reported for threshold φN when
	// φ > ε.
	g, _ := zipf.NewGenerator(800, 1.3, 12, true)
	l := NewLossyCounting(0.002, VariantLC)
	truth := exact.New()
	const n = 80000
	for i := 0; i < n; i++ {
		it := g.Next()
		l.Update(it, 1)
		truth.Update(it, 1)
	}
	threshold := int64(0.01 * n)
	reported := map[core.Item]bool{}
	for _, ic := range l.Query(threshold) {
		reported[ic.Item] = true
	}
	for _, tc := range truth.Query(threshold) {
		if !reported[tc.Item] {
			t.Errorf("missed heavy item %d (count %d)", tc.Item, tc.Count)
		}
	}
}

func TestLossyCountingSpaceBounded(t *testing.T) {
	// Live entries stay well below the distinct count for a skewed stream
	// (the whole point of the algorithm).
	g, _ := zipf.NewGenerator(50000, 1.0, 8, true)
	l := NewLossyCounting(0.001, VariantLC)
	peak := 0
	for i := 0; i < 200000; i++ {
		l.Update(g.Next(), 1)
		peak = max(peak, l.EntryCount())
	}
	if l.EntryCount() > 20000 {
		t.Errorf("%d live entries; space bound violated", l.EntryCount())
	}
	// Bytes is the store's footprint at its capacity, which grows by an
	// eighth at a time and never shrinks: the peak live set fits, with
	// at most an eighth (and one slot) to spare.
	k := cap(l.st.nodes)
	if k < peak || k > peak+peak/8+1 {
		t.Errorf("store capacity %d for a peak of %d live entries", k, peak)
	}
	if l.Bytes() != ssBlockBytes(k) {
		t.Errorf("Bytes() = %d, want the footprint of a store for %d counters, %d", l.Bytes(), k, ssBlockBytes(k))
	}
}

func TestLossyCountingWeightedCrossesBuckets(t *testing.T) {
	// A weighted update spanning several buckets must trigger pruning.
	l := NewLossyCounting(0.1, VariantLC) // w = 10
	l.Update(1, 1)
	l.Update(2, 35) // crosses at least 3 bucket boundaries
	// Item 1 (count 1, delta 0) must be pruned: 1 + 0 ≤ bucket−1.
	if l.Estimate(1) != 0 {
		t.Errorf("item 1 should have been pruned, estimate %d", l.Estimate(1))
	}
	if l.Estimate(2) != 35 {
		t.Errorf("item 2 estimate %d, want 35", l.Estimate(2))
	}
}

func TestLossyCountingMerge(t *testing.T) {
	gA, _ := zipf.NewGenerator(500, 1.2, 31, true)
	gB, _ := zipf.NewGenerator(500, 1.0, 32, true)
	const n = 30000
	la := NewLossyCounting(0.005, VariantLC)
	lb := NewLossyCounting(0.005, VariantLC)
	truth := exact.New()
	seen := map[core.Item]bool{}
	var universe []core.Item
	feed := func(l *LossyCounting, g *zipf.Generator) {
		for i := 0; i < n; i++ {
			it := g.Next()
			l.Update(it, 1)
			truth.Update(it, 1)
			if !seen[it] {
				seen[it] = true
				universe = append(universe, it)
			}
		}
	}
	feed(la, gA)
	feed(lb, gB)
	if err := la.Merge(lb); err != nil {
		t.Fatal(err)
	}
	if la.N() != 2*n {
		t.Fatalf("merged N = %d", la.N())
	}
	// Post-merge LC bound with the concatenated stream's εN slack.
	lcBounds(t, la, truth, universe)
}

func TestLossyCountingMergeRejectsMismatch(t *testing.T) {
	a := NewLossyCounting(0.01, VariantLC)
	if err := a.Merge(NewLossyCounting(0.02, VariantLC)); err == nil {
		t.Error("expected epsilon mismatch error")
	}
	if err := a.Merge(NewLossyCounting(0.01, VariantLCD)); err == nil {
		t.Error("expected variant mismatch error")
	}
	if err := a.Merge(NewFrequent(3)); err == nil {
		t.Error("expected type mismatch error")
	}
}

func TestLossyCountingPropertyBounds(t *testing.T) {
	f := func(items []uint8) bool {
		l := NewLossyCounting(0.05, VariantLC)
		truth := exact.New()
		for _, b := range items {
			it := core.Item(b % 20)
			l.Update(it, 1)
			truth.Update(it, 1)
		}
		slack := int64(0.05*float64(truth.N())) + 1
		for v := core.Item(0); v < 20; v++ {
			est, tru := l.Estimate(v), truth.Estimate(v)
			if est > tru || est < tru-slack {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
