package counters

import (
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/exact"
)

func TestTrackedAdmitsHeavyItems(t *testing.T) {
	tr := NewTracked(exact.New(), 3)
	// Feed counts so items 1,2,3 are heavy and 4..10 are light.
	for i := 0; i < 100; i++ {
		tr.Update(1, 1)
	}
	for i := 0; i < 80; i++ {
		tr.Update(2, 1)
	}
	for i := 0; i < 60; i++ {
		tr.Update(3, 1)
	}
	for it := core.Item(4); it <= 10; it++ {
		tr.Update(it, 1)
	}
	top := tr.Query(0)
	if len(top) != 3 {
		t.Fatalf("Query(0) length %d", len(top))
	}
	wantItems := map[core.Item]bool{1: true, 2: true, 3: true}
	for _, ic := range top {
		if !wantItems[ic.Item] {
			t.Errorf("unexpected tracked item %+v", ic)
		}
	}
	if top[0].Item != 1 || top[0].Count != 100 {
		t.Errorf("top item = %+v", top[0])
	}
}

func TestTrackedEvictsLightForHeavy(t *testing.T) {
	tr := NewTracked(exact.New(), 2)
	tr.Update(1, 1) // light, admitted (capacity)
	tr.Update(2, 1) // light, admitted (capacity)
	for i := 0; i < 50; i++ {
		tr.Update(3, 1) // heavy, must evict a light item
	}
	q := tr.Query(50)
	if len(q) != 1 || q[0].Item != 3 {
		t.Errorf("Query(50) = %+v, want item 3", q)
	}
}

func TestTrackedQueryReestimates(t *testing.T) {
	inner := exact.New()
	tr := NewTracked(inner, 4)
	tr.Update(5, 10)
	// Mutate the inner summary behind the tracker's back; Query must
	// reflect the inner state, not the stale heap estimate.
	inner.Update(5, 90)
	q := tr.Query(100)
	if len(q) != 1 || q[0].Count != 100 {
		t.Errorf("Query = %+v, want re-estimated count 100", q)
	}
}

func TestTrackedMerge(t *testing.T) {
	a := NewTracked(exact.New(), 2)
	b := NewTracked(exact.New(), 2)
	a.Update(1, 10)
	a.Update(2, 5)
	b.Update(3, 20)
	b.Update(1, 7)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	top := a.Query(0)
	if top[0].Item != 3 || top[0].Count != 20 {
		t.Errorf("top after merge = %+v", top[0])
	}
	if top[1].Item != 1 || top[1].Count != 17 {
		t.Errorf("second after merge = %+v", top[1])
	}
}

func TestTrackedPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTracked(exact.New(), 0)
}
