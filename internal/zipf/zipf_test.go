package zipf

import (
	"math"
	"testing"

	"streamfreq/internal/core"
)

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(0, 1, 1, false); err == nil {
		t.Error("expected error for m=0")
	}
	if _, err := NewGenerator(10, -0.5, 1, false); err == nil {
		t.Error("expected error for negative skew")
	}
}

func TestProbSumsToOneAndMonotone(t *testing.T) {
	for _, z := range []float64{0, 0.5, 1.0, 2.0} {
		g, err := NewGenerator(1000, z, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		prev := math.Inf(1)
		for r := 1; r <= 1000; r++ {
			p := g.Prob(r)
			if p > prev+1e-12 {
				t.Fatalf("z=%v: probabilities not non-increasing at rank %d", z, r)
			}
			prev = p
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("z=%v: probabilities sum to %v", z, sum)
		}
	}
}

func TestEmpiricalFrequenciesMatchZipf(t *testing.T) {
	const m, n = 1000, 500000
	g, err := NewGenerator(m, 1.0, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[core.Item]int)
	for i := 0; i < n; i++ {
		counts[g.Next()]++
	}
	// Check the top 5 ranks are within 10% of expectation.
	for r := 1; r <= 5; r++ {
		want := g.Prob(r) * n
		got := float64(counts[core.Item(r)])
		if math.Abs(got-want) > 0.1*want {
			t.Errorf("rank %d: observed %v, expected %v", r, got, want)
		}
	}
}

func TestScrambledIDsAreConsistent(t *testing.T) {
	g1, _ := NewGenerator(100, 1.2, 7, true)
	g2, _ := NewGenerator(100, 1.2, 7, true)
	for r := 1; r <= 100; r++ {
		if g1.ItemOfRank(r) != g2.ItemOfRank(r) {
			t.Fatal("scramble mapping not deterministic")
		}
		if g1.ItemOfRank(r) == core.Item(r) {
			t.Fatalf("rank %d not scrambled", r)
		}
	}
	// Scrambled IDs must be distinct.
	seen := map[core.Item]bool{}
	for r := 1; r <= 100; r++ {
		id := g1.ItemOfRank(r)
		if seen[id] {
			t.Fatalf("duplicate scrambled id for rank %d", r)
		}
		seen[id] = true
	}
}

func TestItemOfRankPanicsOutOfRange(t *testing.T) {
	g, _ := NewGenerator(10, 1, 1, false)
	for _, r := range []int{0, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for rank %d", r)
				}
			}()
			g.ItemOfRank(r)
		}()
	}
}

func TestExpectedHeavyHitters(t *testing.T) {
	g, _ := NewGenerator(1000, 1.0, 3, false)
	hh := g.ExpectedHeavyHitters(0.01)
	// Ranks are a prefix; each must have Prob > 0.01, and the next rank must not.
	for i, it := range hh {
		if g.Prob(i+1) <= 0.01 {
			t.Errorf("rank %d reported but Prob = %v", i+1, g.Prob(i+1))
		}
		if it != g.ItemOfRank(i+1) {
			t.Errorf("heavy hitter %d is not the rank-%d item", it, i+1)
		}
	}
	if next := len(hh) + 1; next <= 1000 && g.Prob(next) > 0.01 {
		t.Errorf("rank %d should have been reported (Prob=%v)", next, g.Prob(next))
	}
}

func TestExpectedHeavyHittersGrowWithSkew(t *testing.T) {
	low, _ := NewGenerator(10000, 0.6, 1, true)
	high, _ := NewGenerator(10000, 1.5, 1, true)
	if len(high.ExpectedHeavyHitters(0.001)) == 0 {
		t.Error("high skew should produce heavy hitters at phi=0.001")
	}
	// At very low skew the head is flatter: the top item's probability is
	// smaller than at high skew.
	if low.Prob(1) >= high.Prob(1) {
		t.Error("top-rank probability should increase with skew")
	}
}

func TestSequential(t *testing.T) {
	s := Sequential(5)
	want := []core.Item{1, 2, 3, 4, 5}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Sequential[%d] = %d, want %d", i, s[i], want[i])
		}
	}
}

func TestAdversarialContainsHeavyItem(t *testing.T) {
	s := Adversarial(1000, 10, 5)
	if len(s) != 1000 {
		t.Fatalf("length %d, want 1000", len(s))
	}
	counts := map[core.Item]int{}
	for _, it := range s {
		counts[it]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// The heavy item recurs roughly every k+2 positions.
	if max < 1000/(10+2)-5 {
		t.Errorf("heaviest item count %d too small", max)
	}
}

func TestUniformGenerator(t *testing.T) {
	g := Uniform(50, 9)
	counts := map[core.Item]int{}
	for i := 0; i < 50000; i++ {
		counts[g.Next()]++
	}
	for it, c := range counts {
		if c < 600 || c > 1400 {
			t.Errorf("item %d count %d far from uniform 1000", it, c)
		}
	}
}

func TestStreamLength(t *testing.T) {
	g, _ := NewGenerator(10, 1, 2, true)
	if s := g.Stream(123); len(s) != 123 {
		t.Fatalf("Stream(123) length %d", len(s))
	}
}
