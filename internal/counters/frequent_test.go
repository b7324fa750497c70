package counters

import (
	"testing"
	"testing/quick"

	"streamfreq/internal/core"
	"streamfreq/internal/exact"
	"streamfreq/internal/zipf"
)

func TestFrequentBasics(t *testing.T) {
	f := NewFrequent(4)
	if f.Name() != "F" || f.k != 4 {
		t.Fatalf("metadata wrong: %s %d", f.Name(), f.k)
	}
	for i := 0; i < 10; i++ {
		f.Update(1, 1)
	}
	f.Update(2, 1)
	if got := f.Estimate(1); got < 9 {
		t.Errorf("Estimate(1) = %d, want ≥ 9", got)
	}
	if f.N() != 11 {
		t.Errorf("N = %d, want 11", f.N())
	}
}

func TestFrequentPanicsOnNonPositive(t *testing.T) {
	f := NewFrequent(2)
	for _, c := range []int64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for count %d", c)
				}
			}()
			f.Update(1, c)
		}()
	}
}

func TestNewFrequentPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewFrequent(0)
}

// mgGuarantee checks the Misra–Gries invariant against exact truth:
// true − n/(k+1) ≤ estimate ≤ true for every item in the universe.
func mgGuarantee(t *testing.T, f *Frequent, truth *exact.Counter, universe []core.Item) {
	t.Helper()
	slack := truth.N() / int64(f.k+1)
	for _, it := range universe {
		est, tru := f.Estimate(it), truth.Estimate(it)
		if est > tru {
			t.Fatalf("item %d: estimate %d exceeds true %d", it, est, tru)
		}
		if est < tru-slack {
			t.Fatalf("item %d: estimate %d below true %d − slack %d", it, est, tru, slack)
		}
	}
	if f.MaxError() > slack {
		t.Fatalf("MaxError %d exceeds n/(k+1) = %d", f.MaxError(), slack)
	}
}

func TestFrequentGuaranteeZipf(t *testing.T) {
	g, err := zipf.NewGenerator(2000, 1.1, 77, true)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFrequent(100)
	truth := exact.New()
	universe := make([]core.Item, 0, 2000)
	for r := 1; r <= 2000; r++ {
		universe = append(universe, g.ItemOfRank(r))
	}
	for i := 0; i < 100000; i++ {
		it := g.Next()
		f.Update(it, 1)
		truth.Update(it, 1)
	}
	mgGuarantee(t, f, truth, universe)
}

func TestFrequentGuaranteeAdversarial(t *testing.T) {
	const k = 20
	s := zipf.Adversarial(50000, k, 3)
	f := NewFrequent(k)
	truth := exact.New()
	seen := map[core.Item]bool{}
	var universe []core.Item
	for _, it := range s {
		f.Update(it, 1)
		truth.Update(it, 1)
		if !seen[it] {
			seen[it] = true
			universe = append(universe, it)
		}
	}
	mgGuarantee(t, f, truth, universe)
}

func TestFrequentWeightedUpdatesEquivalent(t *testing.T) {
	// Feeding x with weight w must equal feeding x w times.
	a, b := NewFrequent(5), NewFrequent(5)
	stream := []struct {
		it core.Item
		w  int64
	}{{1, 3}, {2, 7}, {3, 1}, {1, 2}, {4, 4}, {5, 5}, {6, 6}, {2, 1}}
	for _, u := range stream {
		a.Update(u.it, u.w)
		for i := int64(0); i < u.w; i++ {
			b.Update(u.it, 1)
		}
	}
	for it := core.Item(1); it <= 6; it++ {
		if ae, be := a.Estimate(it), b.Estimate(it); ae != be {
			t.Errorf("item %d: weighted %d vs unit %d", it, ae, be)
		}
	}
}

func TestFrequentQueryRecall(t *testing.T) {
	// Every item with true count > n/(k+1) must appear in Query(threshold)
	// for any threshold ≤ its true count.
	g, _ := zipf.NewGenerator(500, 1.3, 5, true)
	const n, k = 50000, 50
	f := NewFrequent(k)
	truth := exact.New()
	for i := 0; i < n; i++ {
		it := g.Next()
		f.Update(it, 1)
		truth.Update(it, 1)
	}
	phi := 0.02
	threshold := int64(phi * n)
	reported := map[core.Item]bool{}
	for _, ic := range f.Query(threshold) {
		reported[ic.Item] = true
	}
	for _, tc := range truth.Query(threshold) {
		if !reported[tc.Item] {
			t.Errorf("missed true heavy hitter %d (count %d)", tc.Item, tc.Count)
		}
	}
}

func TestFrequentNeverTracksMoreThanK(t *testing.T) {
	f := NewFrequent(7)
	g, _ := zipf.NewGenerator(10000, 0.5, 9, true)
	for i := 0; i < 20000; i++ {
		f.Update(g.Next(), 1)
		if len(f.st.heap) > 7 || len(f.st.nodes) > 7 {
			t.Fatalf("tracked %d entries with k=7", len(f.st.heap))
		}
		if !f.st.validateStorage() {
			t.Fatal("heap invariant broken")
		}
	}
}

func TestFrequentMergeGuarantee(t *testing.T) {
	// Merge(A, B) must satisfy the MG guarantee for the concatenation.
	gA, _ := zipf.NewGenerator(300, 1.2, 21, true)
	gB, _ := zipf.NewGenerator(300, 0.9, 22, true)
	const k, n = 40, 30000
	fa, fb := NewFrequent(k), NewFrequent(k)
	truth := exact.New()
	var universe []core.Item
	seen := map[core.Item]bool{}
	feed := func(f *Frequent, g *zipf.Generator) {
		for i := 0; i < n; i++ {
			it := g.Next()
			f.Update(it, 1)
			truth.Update(it, 1)
			if !seen[it] {
				seen[it] = true
				universe = append(universe, it)
			}
		}
	}
	feed(fa, gA)
	feed(fb, gB)
	if err := fa.Merge(fb); err != nil {
		t.Fatal(err)
	}
	if fa.N() != 2*n {
		t.Fatalf("merged N = %d, want %d", fa.N(), 2*n)
	}
	mgGuarantee(t, fa, truth, universe)
}

func TestFrequentMergeIncompatible(t *testing.T) {
	f := NewFrequent(3)
	if err := f.Merge(NewSpaceSavingHeap(3)); err == nil {
		t.Error("expected incompatibility error")
	}
}

func TestFrequentBytesConstant(t *testing.T) {
	f := NewFrequent(100)
	b0 := f.Bytes()
	g, _ := zipf.NewGenerator(1000, 1, 2, true)
	for i := 0; i < 10000; i++ {
		f.Update(g.Next(), 1)
	}
	if f.Bytes() != b0 {
		t.Errorf("Bytes changed from %d to %d; F must be fixed-space", b0, f.Bytes())
	}
}

func TestFrequentPropertyNeverOverestimates(t *testing.T) {
	f := func(items []uint8, k uint8) bool {
		kk := int(k%16) + 1
		fr := NewFrequent(kk)
		truth := exact.New()
		for _, b := range items {
			it := core.Item(b % 32)
			fr.Update(it, 1)
			truth.Update(it, 1)
		}
		slack := truth.N() / int64(kk+1)
		for v := core.Item(0); v < 32; v++ {
			est, tru := fr.Estimate(v), truth.Estimate(v)
			if est > tru || est < tru-slack {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
