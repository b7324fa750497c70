package core

import (
	"errors"
	"sort"
	"testing"
)

func TestSortByCountDesc(t *testing.T) {
	s := []ItemCount{{3, 5}, {1, 10}, {2, 5}, {4, 7}}
	SortByCountDesc(s)
	want := []ItemCount{{1, 10}, {4, 7}, {2, 5}, {3, 5}}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, s[i], want[i])
		}
	}
}

func TestIncompatibleWraps(t *testing.T) {
	err := Incompatible("because %d", 7)
	if !errors.Is(err, ErrIncompatible) {
		t.Error("Incompatible error does not wrap ErrIncompatible")
	}
}

// mapSummary is a minimal exact Summary used to exercise the plane
// without importing internal/exact (which would create an import cycle
// in tests).
type mapSummary struct {
	m map[Item]int64
	n int64
}

func newMapSummary() *mapSummary { return &mapSummary{m: map[Item]int64{}} }

func (s *mapSummary) Update(x Item, c int64) { s.m[x] += c; s.n += c }
func (s *mapSummary) Estimate(x Item) int64  { return s.m[x] }
func (s *mapSummary) N() int64               { return s.n }
func (s *mapSummary) Bytes() int             { return 32 * len(s.m) }
func (s *mapSummary) Name() string           { return "map" }

func (s *mapSummary) Query(threshold int64) []ItemCount {
	var out []ItemCount
	for it, c := range s.m {
		if c >= threshold {
			out = append(out, ItemCount{it, c})
		}
	}
	SortByCountDesc(out)
	return out
}

func (s *mapSummary) Merge(other Summary) error {
	o, ok := other.(*mapSummary)
	if !ok {
		return Incompatible("mapSummary: %T", other)
	}
	for it, c := range o.m {
		s.m[it] += c
	}
	s.n += o.n
	return nil
}

func TestConcurrentSummaryRace(t *testing.T) {
	c := NewConcurrent(newMapSummary())
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				c.Update(Item(i%10), 1)
				_ = c.Estimate(Item(i % 10))
				if i%100 == 0 {
					_ = c.Query(1)
					_ = c.N()
					_ = c.Bytes()
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.N() != 8000 {
		t.Errorf("N = %d, want 8000", c.N())
	}
}

// TestShardedPartitionsByItem drives the plane's staged scalar Update
// path: each weighted update claims a position of its own, and every
// item's whole count lands in one shard.
func TestShardedPartitionsByItem(t *testing.T) {
	s := NewPipelined(4, func() Summary { return newMapSummary() })
	defer s.Close()
	for i := 0; i < 1000; i++ {
		s.Update(Item(i%50), 1)
	}
	s.Drain()
	if s.N() != 1000 {
		t.Errorf("N = %d", s.N())
	}
	for i := 0; i < 50; i++ {
		if got := s.Estimate(Item(i)); got != 20 {
			t.Errorf("item %d estimate %d, want 20", i, got)
		}
	}
	q := s.Query(20)
	if len(q) != 50 {
		t.Errorf("Query returned %d items, want 50", len(q))
	}
	// No duplicates across shards.
	items := map[Item]bool{}
	for _, ic := range q {
		if items[ic.Item] {
			t.Errorf("item %d reported by two shards", ic.Item)
		}
		items[ic.Item] = true
	}
}

// TestShardedConcurrentIngest races scalar writers through the staged
// Update path; once drained, every count is exact.
func TestShardedConcurrentIngest(t *testing.T) {
	s := NewPipelined(8, func() Summary { return newMapSummary() })
	defer s.Close()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 5000; i++ {
				s.Update(Item(i%100), 1)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	s.Drain()
	if s.N() != 40000 {
		t.Errorf("N = %d, want 40000", s.N())
	}
	for i := 0; i < 100; i++ {
		if got := s.Estimate(Item(i)); got != 400 {
			t.Fatalf("item %d estimate %d, want 400", i, got)
		}
	}
}

func TestSortStability(t *testing.T) {
	// Deterministic order: equal counts sort by ascending item.
	s := []ItemCount{{9, 1}, {3, 1}, {7, 1}, {1, 1}}
	SortByCountDesc(s)
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].Item < s[j].Item }) {
		t.Errorf("tie order not ascending by item: %+v", s)
	}
}
