package counters

import (
	"testing"
	"testing/quick"

	"streamfreq/internal/core"
	"streamfreq/internal/exact"
	"streamfreq/internal/zipf"
)

// ssSummary is the common behaviour of the two Space-Saving variants,
// letting the invariant tests run against both.
type ssSummary interface {
	core.Summary
	Min() int64
	GuaranteedCount(core.Item) int64
	Entries() []core.ItemCount
	K() int
}

func ssVariants(k int) map[string]ssSummary {
	return map[string]ssSummary{
		"SSH": NewSpaceSavingHeap(k),
		"SSL": NewSpaceSavingList(k),
	}
}

// ssInvariants checks the Space-Saving guarantees against exact truth.
func ssInvariants(t *testing.T, name string, s ssSummary, truth *exact.Counter, universe []core.Item) {
	t.Helper()
	min := s.Min()
	if maxErr := truth.N() / int64(s.K()); min > maxErr {
		t.Fatalf("%s: min counter %d exceeds n/k = %d", name, min, maxErr)
	}
	for _, it := range universe {
		est, tru := s.Estimate(it), truth.Estimate(it)
		if est < tru {
			t.Fatalf("%s: item %d estimate %d underestimates true %d", name, it, est, tru)
		}
		if est > tru+min {
			t.Fatalf("%s: item %d estimate %d exceeds true %d + min %d", name, it, est, tru, min)
		}
		if g := s.GuaranteedCount(it); g > tru {
			t.Fatalf("%s: item %d guaranteed %d exceeds true %d", name, it, g, tru)
		}
	}
}

func TestSpaceSavingInvariantsZipf(t *testing.T) {
	for name, s := range ssVariants(64) {
		g, err := zipf.NewGenerator(3000, 1.1, 31, true)
		if err != nil {
			t.Fatal(err)
		}
		truth := exact.New()
		var universe []core.Item
		for r := 1; r <= 3000; r++ {
			universe = append(universe, g.ItemOfRank(r))
		}
		for i := 0; i < 80000; i++ {
			it := g.Next()
			s.Update(it, 1)
			truth.Update(it, 1)
		}
		ssInvariants(t, name, s, truth, universe)
	}
}

func TestSpaceSavingInvariantsSequential(t *testing.T) {
	// Sequential streams force an eviction on every arrival.
	for name, s := range ssVariants(16) {
		truth := exact.New()
		items := zipf.Sequential(5000)
		for _, it := range items {
			s.Update(it, 1)
			truth.Update(it, 1)
		}
		ssInvariants(t, name, s, truth, items)
	}
}

func TestSpaceSavingRecall(t *testing.T) {
	// Every item with count > n/k must be tracked (both variants).
	for name, s := range ssVariants(50) {
		g, _ := zipf.NewGenerator(1000, 1.4, 17, true)
		truth := exact.New()
		const n = 60000
		for i := 0; i < n; i++ {
			it := g.Next()
			s.Update(it, 1)
			truth.Update(it, 1)
		}
		tracked := map[core.Item]bool{}
		for _, ic := range s.Entries() {
			tracked[ic.Item] = true
		}
		for _, tc := range truth.Query(n/50 + 1) {
			if !tracked[tc.Item] {
				t.Errorf("%s: untracked heavy item %d (count %d > n/k)", name, tc.Item, tc.Count)
			}
		}
	}
}

func TestSpaceSavingExactWhenUnderCapacity(t *testing.T) {
	// With fewer distinct items than counters, Space-Saving is exact.
	for name, s := range ssVariants(100) {
		g, _ := zipf.NewGenerator(50, 1.0, 7, true)
		truth := exact.New()
		for i := 0; i < 20000; i++ {
			it := g.Next()
			s.Update(it, 1)
			truth.Update(it, 1)
		}
		for r := 1; r <= 50; r++ {
			it := g.ItemOfRank(r)
			if s.Estimate(it) != truth.Estimate(it) {
				t.Errorf("%s: item %d inexact under capacity: %d vs %d",
					name, it, s.Estimate(it), truth.Estimate(it))
			}
			if s.GuaranteedCount(it) != truth.Estimate(it) {
				t.Errorf("%s: item %d guaranteed bound should be exact", name, it)
			}
		}
		if s.Min() != 0 {
			t.Errorf("%s: Min = %d with free capacity", name, s.Min())
		}
	}
}

func TestSpaceSavingVariantsAgreeOnCounterMultiset(t *testing.T) {
	// Same stream, same k: the multiset of counter values must match
	// between SSH and SSL whenever no eviction ties occur. Use a skewed
	// stream where the head is unambiguous, and compare total counter sum,
	// which is tie-insensitive: each update adds its weight plus exactly
	// the evicted minimum.
	h := NewSpaceSavingHeap(32)
	l := NewSpaceSavingList(32)
	g, _ := zipf.NewGenerator(500, 1.5, 3, true)
	for i := 0; i < 40000; i++ {
		it := g.Next()
		h.Update(it, 1)
		l.Update(it, 1)
	}
	var hs, ls int64
	for _, e := range h.Entries() {
		hs += e.Count
	}
	for _, e := range l.Entries() {
		ls += e.Count
	}
	if hs != ls {
		t.Errorf("counter mass differs: SSH %d vs SSL %d", hs, ls)
	}
	if h.Min() != l.Min() {
		t.Errorf("min differs: SSH %d vs SSL %d", h.Min(), l.Min())
	}
	// Top-of-head estimates must agree (no ties in the head of a skewed
	// distribution).
	top := g.ItemOfRank(1)
	if h.Estimate(top) != l.Estimate(top) {
		t.Errorf("rank-1 estimate differs: %d vs %d", h.Estimate(top), l.Estimate(top))
	}
}

func TestSpaceSavingListStructure(t *testing.T) {
	l := NewSpaceSavingList(8)
	g, _ := zipf.NewGenerator(100, 1.0, 13, true)
	for i := 0; i < 5000; i++ {
		l.Update(g.Next(), 1)
		if i%97 == 0 && !l.validate() {
			t.Fatalf("stream-summary structure invalid at step %d", i)
		}
	}
	if !l.validate() {
		t.Fatal("stream-summary structure invalid at end")
	}
	if len(l.buckets) > 8 {
		t.Errorf("%d bucket slots for 8 entries", len(l.buckets))
	}
}

func TestSpaceSavingWeightedUpdates(t *testing.T) {
	for name, s := range ssVariants(4) {
		s.Update(1, 10)
		s.Update(2, 5)
		s.Update(1, 3)
		if got := s.Estimate(1); got != 13 {
			t.Errorf("%s: Estimate(1) = %d, want 13", name, got)
		}
		// Fill and overflow.
		s.Update(3, 1)
		s.Update(4, 1)
		s.Update(5, 2) // evicts a count-1 entry; estimate 3
		if got := s.Estimate(5); got != 3 {
			t.Errorf("%s: Estimate(5) = %d, want 3 (1 inherited + 2)", name, got)
		}
	}
}

func TestSpaceSavingQueryOrder(t *testing.T) {
	for name, s := range ssVariants(10) {
		for i := int64(1); i <= 5; i++ {
			for j := int64(0); j < i*10; j++ {
				s.Update(core.Item(i), 1)
			}
		}
		q := s.Query(20)
		if len(q) != 4 {
			t.Fatalf("%s: Query(20) returned %d items, want 4", name, len(q))
		}
		for i := 1; i < len(q); i++ {
			if q[i].Count > q[i-1].Count {
				t.Errorf("%s: query results not descending", name)
			}
		}
	}
}

func TestSpaceSavingHeapMergeInvariants(t *testing.T) {
	const k, n = 30, 20000
	a, b := NewSpaceSavingHeap(k), NewSpaceSavingHeap(k)
	gA, _ := zipf.NewGenerator(400, 1.2, 41, true)
	gB, _ := zipf.NewGenerator(400, 1.0, 42, true)
	truth := exact.New()
	seen := map[core.Item]bool{}
	var universe []core.Item
	feed := func(s *SpaceSavingHeap, g *zipf.Generator) {
		for i := 0; i < n; i++ {
			it := g.Next()
			s.Update(it, 1)
			truth.Update(it, 1)
			if !seen[it] {
				seen[it] = true
				universe = append(universe, it)
			}
		}
	}
	feed(a, gA)
	feed(b, gB)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 2*n {
		t.Fatalf("merged N = %d", a.N())
	}
	// Post-merge: estimates never underestimate; guaranteed counts never
	// overestimate.
	for _, it := range universe {
		tru := truth.Estimate(it)
		if est := a.Estimate(it); est < tru {
			t.Fatalf("merged estimate %d underestimates %d for item %d", est, tru, it)
		}
		if g := a.GuaranteedCount(it); g > tru {
			t.Fatalf("merged guarantee %d exceeds true %d for item %d", g, tru, it)
		}
	}
}

func TestSpaceSavingMergeIncompatible(t *testing.T) {
	if err := NewSpaceSavingHeap(3).Merge(NewFrequent(3)); err == nil {
		t.Error("expected incompatibility error")
	}
}

func TestSpaceSavingPropertyOverestimateBounded(t *testing.T) {
	f := func(items []uint8, k uint8) bool {
		kk := int(k%12) + 1
		s := NewSpaceSavingHeap(kk)
		truth := exact.New()
		for _, b := range items {
			it := core.Item(b % 24)
			s.Update(it, 1)
			truth.Update(it, 1)
		}
		min := s.Min()
		for v := core.Item(0); v < 24; v++ {
			est, tru := s.Estimate(v), truth.Estimate(v)
			if est < tru || est > tru+min {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSpaceSavingListPropertyMatchesInvariant(t *testing.T) {
	f := func(items []uint8, k uint8) bool {
		kk := int(k%12) + 1
		s := NewSpaceSavingList(kk)
		truth := exact.New()
		for _, b := range items {
			it := core.Item(b % 24)
			s.Update(it, 1)
			truth.Update(it, 1)
		}
		if !s.validate() {
			return false
		}
		min := s.Min()
		for v := core.Item(0); v < 24; v++ {
			est, tru := s.Estimate(v), truth.Estimate(v)
			if est < tru || est > tru+min {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSpaceSavingMergeGuarantee: Merge(A, B) of either Space-Saving
// variant must satisfy the Space-Saving invariants for the concatenated
// stream — no underestimates, overestimates bounded by the combined
// minimum inflation (≤ n_a/k + n_b/k) — and the two variants, which use
// the same deterministic merge construction, must produce identical
// threshold reports.
func TestSpaceSavingMergeGuarantee(t *testing.T) {
	const k = 48
	ga, err := zipf.NewGenerator(2000, 1.1, 11, true)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := zipf.NewGenerator(2000, 0.9, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	streamA, streamB := ga.Stream(30_000), gb.Stream(20_000)

	truth := exact.New()
	for _, it := range append(append([]core.Item{}, streamA...), streamB...) {
		truth.Update(it, 1)
	}

	as, bs := ssVariants(k), ssVariants(k)
	for _, it := range streamA {
		for _, s := range as {
			s.Update(it, 1)
		}
	}
	for _, it := range streamB {
		for _, s := range bs {
			s.Update(it, 1)
		}
	}

	var reports map[string][]core.ItemCount = map[string][]core.ItemCount{}
	for name, a := range as {
		if err := a.(core.Merger).Merge(bs[name]); err != nil {
			t.Fatalf("%s: merge: %v", name, err)
		}
		n := int64(len(streamA) + len(streamB))
		if a.N() != n {
			t.Fatalf("%s: merged N = %d, want %d", name, a.N(), n)
		}
		// Merged min inflation bounds every estimate's overshoot; the
		// underestimate side must still be zero.
		maxOver := n / int64(k)
		for _, ic := range truth.TopK(50) {
			est := a.Estimate(ic.Item)
			if est < ic.Count {
				t.Fatalf("%s: merged estimate %d underestimates true %d (item %d)",
					name, est, ic.Count, ic.Item)
			}
			if est > ic.Count+maxOver {
				t.Fatalf("%s: merged estimate %d exceeds true %d + n/k %d (item %d)",
					name, est, ic.Count, maxOver, ic.Item)
			}
		}
		reports[name] = a.Query(n / int64(k+1))
	}
	if lh, ll := len(reports["SSH"]), len(reports["SSL"]); lh != ll {
		t.Fatalf("merged SSH reports %d items, SSL %d", lh, ll)
	}
	for i, ic := range reports["SSH"] {
		if reports["SSL"][i] != ic {
			t.Fatalf("merged report[%d]: SSH %+v, SSL %+v", i, ic, reports["SSL"][i])
		}
	}
	if l := as["SSL"].(*SpaceSavingList); !l.validate() {
		t.Fatal("merged SSL fails structural validation")
	}
}

// TestSpaceSavingListMergeIncompatible: the list variant rejects foreign
// summaries (including its heap sibling — their structures don't mix).
func TestSpaceSavingListMergeIncompatible(t *testing.T) {
	s := NewSpaceSavingList(4)
	if err := s.Merge(NewSpaceSavingHeap(4)); err == nil {
		t.Fatal("SSL merged an SSH summary without error")
	}
	if err := s.Merge(NewFrequent(4)); err == nil {
		t.Fatal("SSL merged a Frequent summary without error")
	}
}
