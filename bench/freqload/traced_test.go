package main

import (
	"context"
	"path/filepath"
	"testing"
)

// A short traced run of two in-process topologies: the constructors
// still compose the way the commands compose them, every correctness
// gate passes (the ledger's included), and every per-layer metric gets a
// number.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts an in-process tier")
	}
	for _, name := range []string{"small-text", "tenant-churn"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		cfg := &config{build: dir, seed: 3, seconds: 1, trace: true, spans: filepath.Join(dir, "spans.jsonl"), replay: 1 << 14}
		res, err := runTraced(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: gates %+v", name, res.Gates)
		}
		for _, d := range perLayer {
			if v, ok := res.Metrics[d.name]; !ok || v.Value == nil {
				t.Errorf("%s: per-layer metric %s missing", name, d.name)
			}
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want the %d per-layer ones", name, len(res.Metrics), len(perLayer))
		}
	}
}
