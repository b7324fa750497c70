package sketches

import (
	"math"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/exact"
	"streamfreq/internal/zipf"
)

func TestCountSketchAccuracyWithinTheory(t *testing.T) {
	// Lemma 4: |estimate − true| ≤ 8γ where γ = sqrt(residual F2 / b).
	// We check against the slightly looser full-F2 bound, which holds for
	// every item simultaneously with the configured depth.
	const n, w, d = 100000, 2048, 9
	g, err := zipf.NewGenerator(3000, 1.1, 23, true)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCountSketch(d, w, 31)
	truth := exact.New()
	for i := 0; i < n; i++ {
		it := g.Next()
		cs.Update(it, 1)
		truth.Update(it, 1)
	}
	gamma := math.Sqrt(truth.SecondMoment() / w)
	bound := int64(8*gamma) + 1
	violations := 0
	for r := 1; r <= 3000; r++ {
		it := g.ItemOfRank(r)
		diff := cs.Estimate(it) - truth.Estimate(it)
		if diff < 0 {
			diff = -diff
		}
		if diff > bound {
			violations++
		}
	}
	if violations > 3 {
		t.Errorf("%d of 3000 items exceed the 8γ error bound (γ=%.1f)", violations, gamma)
	}
}

func TestCountSketchApproximatelyUnbiased(t *testing.T) {
	// Averaged over many independent sketches, the estimate of a fixed
	// item should straddle its true count.
	const trials = 40
	var sum float64
	for s := 0; s < trials; s++ {
		cs := NewCountSketch(1, 64, uint64(1000+s))
		// 200 copies of item 7 plus noise items.
		for i := 0; i < 200; i++ {
			cs.Update(7, 1)
		}
		for i := core.Item(100); i < 400; i++ {
			cs.Update(i, 1)
		}
		sum += float64(cs.Estimate(7))
	}
	mean := sum / trials
	// Single-row estimates are exactly unbiased; sampling error with 40
	// trials and σ ≈ sqrt(300/64)·~17 stays well within ±25.
	if math.Abs(mean-200) > 25 {
		t.Errorf("mean estimate %.1f not ≈ 200; estimator looks biased", mean)
	}
}

func TestCountSketchMergeEqualsConcatenation(t *testing.T) {
	const seed = 17
	a := NewCountSketch(5, 256, seed)
	b := NewCountSketch(5, 256, seed)
	whole := NewCountSketch(5, 256, seed)
	g, _ := zipf.NewGenerator(500, 1.0, 3, true)
	for i := 0; i < 20000; i++ {
		it := g.Next()
		if i%3 == 0 {
			a.Update(it, 1)
		} else {
			b.Update(it, 1)
		}
		whole.Update(it, 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 500; r++ {
		it := g.ItemOfRank(r)
		if a.Estimate(it) != whole.Estimate(it) {
			t.Fatalf("merged estimate differs from whole-stream estimate")
		}
	}
}

func TestCountSketchSubtractFindsChange(t *testing.T) {
	// The §4.2 max-change primitive: sketch two streams, subtract, and the
	// largest |difference| items must surface.
	const seed = 41
	s1 := NewCountSketch(7, 512, seed)
	s2 := NewCountSketch(7, 512, seed)
	g, _ := zipf.NewGenerator(1000, 1.0, 5, true)
	for i := 0; i < 30000; i++ {
		it := g.Next()
		s1.Update(it, 1)
		s2.Update(it, 1)
	}
	// Make item X surge in stream 2 only.
	surging := core.Item(0xABCDEF)
	for i := 0; i < 5000; i++ {
		s2.Update(surging, 1)
	}
	if err := s2.Subtract(s1); err != nil {
		t.Fatal(err)
	}
	got := s2.Estimate(surging)
	if got < 4000 || got > 6000 {
		t.Errorf("difference estimate %d for surging item, want ≈ 5000", got)
	}
	// A non-surging item's difference should be near zero.
	quiet := g.ItemOfRank(1)
	if d := s2.Estimate(quiet); d < -1500 || d > 1500 {
		t.Errorf("difference estimate %d for stable item, want ≈ 0", d)
	}
}

func TestCountSketchMergeRejectsMismatch(t *testing.T) {
	a := NewCountSketch(4, 128, 1)
	if err := a.Merge(NewCountSketch(4, 128, 2)); err == nil {
		t.Error("expected seed mismatch error")
	}
	if err := a.Merge(NewCountMin(4, 128, 1)); err == nil {
		t.Error("expected type mismatch error")
	}
	if err := a.Subtract(NewCountSketch(4, 256, 1)); err == nil {
		t.Error("expected width mismatch error")
	}
}

func TestCountSketchQueryReturnsNil(t *testing.T) {
	cs := NewCountSketch(3, 64, 2)
	cs.Update(9, 3)
	if cs.Query(1) != nil {
		t.Error("flat sketch Query should return nil")
	}
}

func TestCountSketchWeightedAndNegative(t *testing.T) {
	cs := NewCountSketch(5, 128, 6)
	cs.Update(1, 100)
	cs.Update(1, -40)
	if got := cs.Estimate(1); got != 60 {
		t.Errorf("estimate = %d, want 60 (single item, no collisions)", got)
	}
	if cs.N() != 60 {
		t.Errorf("N = %d, want 60", cs.N())
	}
}

func TestCountSketchBytes(t *testing.T) {
	cs := NewCountSketch(4, 100, 1)
	if cs.Bytes() < 8*4*100 {
		t.Errorf("Bytes %d below raw counter size", cs.Bytes())
	}
}
