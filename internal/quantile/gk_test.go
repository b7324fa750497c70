package quantile

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"streamfreq/internal/prng"
)

func TestGKValidation(t *testing.T) {
	for _, eps := range []float64{0, 1, -0.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for epsilon %v", eps)
				}
			}()
			New(eps)
		}()
	}
}

func TestGKEmpty(t *testing.T) {
	g := New(0.01)
	if _, err := g.Quantile(0.5); err == nil {
		t.Error("expected error on empty summary")
	}
	if g.N() != 0 || g.Size() != 0 {
		t.Error("empty summary has state")
	}
}

// checkQuantiles verifies every decile against the exact sorted data.
func checkQuantiles(t *testing.T, g *GK, sorted []float64) {
	t.Helper()
	n := len(sorted)
	slackF := g.epsilon * float64(n)
	for q := 0.0; q <= 1.0; q += 0.1 {
		got, err := g.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		// Find got's rank range in the exact data.
		lo := sort.SearchFloat64s(sorted, got)
		hi := sort.Search(n, func(i int) bool { return sorted[i] > got })
		target := q * float64(n)
		if float64(hi) < target-slackF-1 || float64(lo) > target+slackF+1 {
			t.Errorf("q=%.1f: returned value has rank [%d,%d], want within ±%.0f of %.0f",
				q, lo, hi, slackF, target)
		}
	}
}

func TestGKUniformData(t *testing.T) {
	g := New(0.01)
	rng := prng.New(7)
	var data []float64
	for i := 0; i < 50000; i++ {
		v := rng.Float64()
		g.Insert(v)
		data = append(data, v)
	}
	if err := g.validate(); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(data)
	checkQuantiles(t, g, data)
}

func TestGKSortedAndReversedInserts(t *testing.T) {
	for name, gen := range map[string]func(i, n int) float64{
		"ascending":  func(i, n int) float64 { return float64(i) },
		"descending": func(i, n int) float64 { return float64(n - i) },
	} {
		g := New(0.02)
		const n = 20000
		var data []float64
		for i := 0; i < n; i++ {
			v := gen(i, n)
			g.Insert(v)
			data = append(data, v)
		}
		if err := g.validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sort.Float64s(data)
		checkQuantiles(t, g, data)
	}
}

func TestGKSpaceBound(t *testing.T) {
	g := New(0.01)
	rng := prng.New(9)
	for i := 0; i < 200000; i++ {
		g.Insert(rng.Float64())
	}
	// O((1/ε)·log(εn)) with modest constants: 1/ε = 100, log2(εn=2000) ≈ 11.
	if g.Size() > 100*11*3 {
		t.Errorf("summary holds %d tuples; space bound violated", g.Size())
	}
}

func TestGKDuplicateHeavy(t *testing.T) {
	g := New(0.05)
	var data []float64
	for i := 0; i < 10000; i++ {
		v := float64(i % 3)
		g.Insert(v)
		data = append(data, v)
	}
	if err := g.validate(); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(data)
	checkQuantiles(t, g, data)
	med, _ := g.Quantile(0.5)
	if med != 1 {
		t.Errorf("median of {0,1,2}* = %v, want 1", med)
	}
}

func TestGKRankBoundsContainTruth(t *testing.T) {
	g := New(0.02)
	rng := prng.New(11)
	var data []float64
	for i := 0; i < 20000; i++ {
		v := math.Floor(rng.Float64() * 1000)
		g.Insert(v)
		data = append(data, v)
	}
	sort.Float64s(data)
	for _, probe := range []float64{0, 100, 499.5, 999} {
		lo, hi := g.Rank(probe)
		trueRank := int64(sort.Search(len(data), func(i int) bool { return data[i] > probe }))
		slack := int64(g.epsilon*float64(len(data))) + 1
		if trueRank < lo-slack || trueRank > hi+slack {
			t.Errorf("probe %v: true rank %d outside [%d−ε, %d+ε]", probe, trueRank, lo, hi)
		}
	}
}

func TestGKPropertyInvariantHolds(t *testing.T) {
	f := func(vals []float64) bool {
		g := New(0.1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			g.Insert(v)
		}
		return g.validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGKQuantileClamps(t *testing.T) {
	g := New(0.1)
	for i := 0; i < 100; i++ {
		g.Insert(float64(i))
	}
	lo, err := g.Quantile(-0.5)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := g.Quantile(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi {
		t.Errorf("clamped quantiles inverted: %v > %v", lo, hi)
	}
	if hi != 99 {
		t.Errorf("max quantile = %v, want 99", hi)
	}
}
