package sketches

import (
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/prng"
)

func TestRangeEstimateNeverUnderestimates(t *testing.T) {
	h, err := NewCountMinHierarchy(HierarchyConfig{Depth: 4, Width: 2048, Bits: 4, UniverseBits: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.New(9)
	exactCounts := make([]int64, 1<<16)
	const n = 200000
	for i := 0; i < n; i++ {
		// Clustered values so ranges are meaningful.
		v := rng.Uint64n(1 << 16)
		if rng.Uint64n(4) == 0 {
			v = 1000 + rng.Uint64n(64)
		}
		h.Update(core.Item(v), 1)
		exactCounts[v]++
	}
	ranges := [][2]uint64{
		{0, 0}, {1000, 1063}, {0, 1<<16 - 1}, {5, 5}, {32768, 65535}, {999, 1064},
	}
	for _, r := range ranges {
		var truth int64
		for v := r[0]; v <= r[1]; v++ {
			truth += exactCounts[v]
		}
		got, err := h.RangeEstimate(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if got < truth {
			t.Errorf("range [%d,%d]: estimate %d underestimates true %d", r[0], r[1], got, truth)
		}
		slack := int64(float64(n) * 0.1) // generous: ε·N·levels
		if got > truth+slack {
			t.Errorf("range [%d,%d]: estimate %d exceeds true %d + slack", r[0], r[1], got, truth)
		}
	}
	// Full-universe range must be within slack of n (one-sided above).
	full, err := h.RangeEstimate(0, 1<<16-1)
	if err != nil {
		t.Fatal(err)
	}
	if full < n {
		t.Errorf("full-range estimate %d below n %d", full, n)
	}
}

func TestRangeEstimateErrors(t *testing.T) {
	h, _ := NewCountMinHierarchy(HierarchyConfig{Depth: 2, Width: 64, Bits: 8, UniverseBits: 16, Seed: 1})
	if _, err := h.RangeEstimate(10, 5); err == nil {
		t.Error("inverted range accepted")
	}
	// Range entirely above the universe is empty.
	got, err := h.RangeEstimate(1<<20, 1<<21)
	if err != nil || got != 0 {
		t.Errorf("above-universe range = %d, %v", got, err)
	}
}

func TestRangeEstimateTopOfUniverse(t *testing.T) {
	h, _ := NewCountMinHierarchy(HierarchyConfig{Depth: 3, Width: 512, Bits: 8, UniverseBits: 16, Seed: 2})
	top := core.Item(1<<16 - 1)
	h.Update(top, 7)
	got, err := h.RangeEstimate(1<<16-1, 1<<16-1)
	if err != nil {
		t.Fatal(err)
	}
	if got < 7 {
		t.Errorf("top-of-universe point range = %d, want ≥ 7", got)
	}
	// Must not loop forever or wrap; full range includes it.
	full, err := h.RangeEstimate(0, 1<<16-1)
	if err != nil || full < 7 {
		t.Errorf("full range = %d, %v", full, err)
	}
}

func TestQuantileQuery(t *testing.T) {
	h, err := NewCountMinHierarchy(HierarchyConfig{Depth: 4, Width: 2048, Bits: 4, UniverseBits: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform values over [0, 10000): quantiles are predictable.
	rng := prng.New(21)
	const n = 100000
	for i := 0; i < n; i++ {
		h.Update(core.Item(rng.Uint64n(10000)), 1)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		v, err := h.QuantileQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want := q * 10000
		// CM overestimation biases ranks upward, so the returned value
		// can sit below the true quantile; allow a generous band.
		if float64(v) < want-1500 || float64(v) > want+1500 {
			t.Errorf("q=%.2f: got %d, want ≈ %.0f", q, v, want)
		}
	}
	if _, err := NewCountMinHierarchy(HierarchyConfig{Depth: 2, Width: 32, Bits: 8, UniverseBits: 16, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileQueryEdges(t *testing.T) {
	h, _ := NewCountMinHierarchy(HierarchyConfig{Depth: 2, Width: 64, Bits: 8, UniverseBits: 16, Seed: 2})
	if _, err := h.QuantileQuery(0.5); err == nil {
		t.Error("empty-sketch quantile accepted")
	}
	h.Update(42, 10)
	v, err := h.QuantileQuery(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if v > 42 {
		t.Errorf("single-item median = %d, want ≤ 42", v)
	}
	// Clamped q values must not error.
	if _, err := h.QuantileQuery(-1); err != nil {
		t.Error(err)
	}
	if _, err := h.QuantileQuery(2); err != nil {
		t.Error(err)
	}
}
