package counters

import (
	"testing"
	"testing/quick"

	"streamfreq/internal/core"
	"streamfreq/internal/zipf"
)

// TestFrequentOffsetEquivalence is the ablation correctness proof: the
// offset-trick Frequent and the textbook decrement-all FrequentNaive
// must produce byte-identical summaries on any stream.
func TestFrequentOffsetEquivalence(t *testing.T) {
	f := func(items []uint16, kRaw uint8) bool {
		k := int(kRaw%20) + 1
		fast := NewFrequent(k)
		slow := NewFrequentNaive(k)
		for _, raw := range items {
			it := core.Item(raw % 64)
			w := int64(raw%3) + 1
			fast.Update(it, w)
			slow.Update(it, w)
		}
		if fast.MaxError() != slow.MaxError() {
			return false
		}
		fe, se := fast.Entries(), slow.Entries()
		if len(fe) != len(se) {
			return false
		}
		for i := range fe {
			if fe[i] != se[i] {
				return false
			}
		}
		for v := core.Item(0); v < 64; v++ {
			if fast.Estimate(v) != slow.Estimate(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestFrequentOffsetEquivalenceZipf(t *testing.T) {
	// Same check on a realistic stream at realistic k.
	g, err := zipf.NewGenerator(5000, 1.0, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	const k = 100
	fast := NewFrequent(k)
	slow := NewFrequentNaive(k)
	for i := 0; i < 50000; i++ {
		it := g.Next()
		fast.Update(it, 1)
		slow.Update(it, 1)
	}
	fe, se := fast.Entries(), slow.Entries()
	if len(fe) != len(se) {
		t.Fatalf("entry counts differ: %d vs %d", len(fe), len(se))
	}
	for i := range fe {
		if fe[i] != se[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, fe[i], se[i])
		}
	}
	if fast.MaxError() != slow.MaxError() {
		t.Errorf("decrement mass differs: %d vs %d", fast.MaxError(), slow.MaxError())
	}
}

func TestFrequentNaiveGuarantee(t *testing.T) {
	g, _ := zipf.NewGenerator(1000, 1.1, 7, true)
	f := NewFrequentNaive(50)
	total := int64(0)
	truth := map[core.Item]int64{}
	for i := 0; i < 30000; i++ {
		it := g.Next()
		f.Update(it, 1)
		truth[it]++
		total++
	}
	slack := total / int64(f.k+1)
	for it, tru := range truth {
		est := f.Estimate(it)
		if est > tru || est < tru-slack {
			t.Fatalf("item %d: estimate %d outside [true−slack, true] = [%d, %d]", it, est, tru-slack, tru)
		}
	}
}
