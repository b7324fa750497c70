package window

import (
	"fmt"
	"testing"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/prng"
	"streamfreq/internal/sketches"
	"streamfreq/internal/zipf"
)

// TestMultiResCoverage is the wall-clock ring's coverage rule against
// exact per-span truth. Under an injected clock, random batch sizes and
// idle gaps (some longer than a horizon), every horizon view must
//
//   - never estimate an item below its true count in the horizon,
//   - have an N no larger than the horizon's true event count, and
//   - report every item at or above φ of that N (recall 1).
//
// The block summaries hold the whole 200-item universe (Space-Saving
// with 256 counters; Count-Min, which never underestimates), so a
// failure is the ring's coverage, not a block's own error. Spans of 1m
// and 5m with B = 7 do not divide into whole-nanosecond blocks.
func TestMultiResCoverage(t *testing.T) {
	factories := map[string]func() core.Summary{
		"SSH": func() core.Summary { return counters.NewSpaceSavingHeap(256) },
		"CMH": func() core.Summary {
			h, err := sketches.NewCountMinHierarchy(sketches.HierarchyConfig{
				Depth: 4, Width: 1024, Bits: 4, UniverseBits: 8, Seed: 3,
			})
			if err != nil {
				panic(err)
			}
			return h
		},
	}
	for name, factory := range factories {
		for _, blocks := range []int{4, 7} {
			t.Run(fmt.Sprintf("%s/B=%d", name, blocks), func(t *testing.T) {
				checkCoverage(t, factory, blocks, []time.Duration{time.Minute, 5 * time.Minute})
			})
		}
	}
}

type stampedBatch struct {
	at    int64 // arrival time, Unix nanoseconds
	items []core.Item
}

func checkCoverage(t *testing.T, factory func() core.Summary, blocks int, spans []time.Duration) {
	const phi = 0.02
	clk := &fakeClock{t: time.Unix(1_700_000_000, 123_456_789)}
	m, err := NewMultiRes(MultiResConfig{Horizons: spans, Blocks: blocks, Factory: factory, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	g, err := zipf.NewGenerator(200, 1.1, 0xC0DE, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.New(uint64(blocks))
	var log []stampedBatch
	var views, under, over, missed int
	for step := 0; step < 3000; step++ {
		gap := time.Duration(rng.Uint64n(20_000)) * time.Millisecond
		if rng.Uint64n(50) == 0 {
			gap = time.Duration(rng.Uint64n(400)) * time.Second // idle past a horizon
		}
		clk.advance(gap)
		batch := g.Stream(1 + int(rng.Uint64n(300)))
		m.UpdateBatch(batch)
		log = append(log, stampedBatch{at: clk.t.UnixNano(), items: batch})
		if step%50 != 49 {
			continue
		}
		now := clk.t.UnixNano()
		for _, span := range spans {
			truth := map[core.Item]int64{}
			var trueN int64
			for i := len(log) - 1; i >= 0 && log[i].at > now-int64(span); i-- {
				for _, it := range log[i].items {
					truth[it]++
				}
				trueN += int64(len(log[i].items))
			}
			v, err := m.HorizonView(span)
			if err != nil {
				t.Fatal(err)
			}
			views++
			if v.N() > trueN {
				over++
			}
			threshold := max(int64(phi*float64(v.N())), 1)
			reported := map[core.Item]bool{}
			for _, ic := range v.Query(threshold) {
				reported[ic.Item] = true
			}
			for it, c := range truth {
				if v.Estimate(it) < c {
					under++
				}
				if float64(c) >= phi*float64(v.N()) && !reported[it] {
					missed++
				}
			}
		}
	}
	if under+over+missed > 0 {
		t.Errorf("over %d views: %d estimates below the true horizon count, %d view N above the true count, %d items ≥ φ·N missing",
			views, under, over, missed)
	}
}
