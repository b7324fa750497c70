package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

func TestBoundChecks(t *testing.T) {
	relative := metricDef{name: "ingest_p50_ms", bound: bound{rel: 0.1}}
	higher := metricDef{name: "ingest_items_per_s", higher: true, bound: bound{rel: 0.1}}
	floored := metricDef{name: "setup_s", bound: bound{rel: 0.25, floor: 0.005}}
	absolute := metricDef{name: "recall", higher: true, bound: bound{rel: 0.005, abs: 0.005}}
	for _, tc := range []struct {
		def      metricDef
		base, v  float64
		wantBad  bool
		scenario string
	}{
		{relative, 10, 10.9, false, "9% slower is within 10%"},
		{relative, 10, 11.1, true, "11% slower is worse"},
		{relative, 10, 2, false, "faster is never worse"},
		{higher, 100, 91, false, "9% less throughput is within"},
		{higher, 100, 89, true, "11% less throughput is worse"},
		{higher, 100, 500, false, "more throughput is never worse"},
		{floored, 0.01, 0.014, false, "below the floor a tiny value may move by the floor"},
		{floored, 0.01, 0.016, true, "past the floor it is worse"},
		{floored, 1, 1.2, false, "above the floor the relative bound applies"},
		{floored, 1, 1.3, true, "and is enforced"},
		{absolute, 1, 0.996, false, "an absolute bound allows 0.005"},
		{absolute, 1, 0.994, true, "and no more"},
		{absolute, 0.1, 0.096, false, "whatever the baseline"},
		{absolute, 0.1, 0.094, true, "even where 5% relative would allow it"},
	} {
		if got := tc.def.worse(tc.base, tc.v); got != tc.wantBad {
			t.Errorf("%s: worse(%g, %g) = %v", tc.scenario, tc.base, tc.v, got)
		}
	}
}

func TestJudge(t *testing.T) {
	lat := &metricDef{name: "ingest_p50_ms", bound: bound{rel: 0.1}}
	steady := []float64{10, 10.1, 9.9, 10, 10.2}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{[]float64{10.3, 10.4, 10.2, 10.5, 10.3}, verdictWithin},
		{[]float64{12, 12.1, 11.9, 12, 12.2}, verdictWorse},
		{[]float64{5, 20, 10, 2, 15}, verdictUnresolved},
		{[]float64{5, 8, 6, 2, 7}, verdictWithin}, // noisy, but every run is better
	} {
		if got := judge(lat, steady, tc.b); got != tc.want {
			t.Errorf("judge(%v) = %s, want %s", tc.b, got, tc.want)
		}
	}
}

// benchmarkFile is BENCHMARK.json; unknown keys fail the decode.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, defined %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	var listed []metricDef
	for _, d := range endToEnd {
		if d.listed {
			listed = append(listed, d)
		}
	}
	if len(b.EndToEnd) != len(listed) {
		t.Fatalf("%d end-to-end metrics listed, %d marked in the catalogue", len(b.EndToEnd), len(listed))
	}
	var setupBound, maxOther float64
	for i, d := range listed {
		e := b.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better() || e.Bound != d.bound.rel {
			t.Errorf("end-to-end %d: listed %+v, catalogue %s %s %s %g", i, e, d.name, d.unit, d.better(), d.bound.rel)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setupBound = e.Bound
		} else {
			maxOther = max(maxOther, e.Bound)
		}
	}
	if setupBound <= maxOther {
		t.Errorf("setup_s bound %g is not the largest (another is %g)", setupBound, maxOther)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d defined", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := b.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better() {
			t.Errorf("per-layer %d: listed %+v, catalogue %s %s %s", i, e, d.name, d.unit, d.better())
		}
	}
}

func TestSummaryLineHasExactlyTheListedMetrics(t *testing.T) {
	m := metricSet{}
	for _, d := range endToEnd {
		m.set(d.name, 1, 1)
	}
	res := &result{Metrics: m, Correct: true, Attempted: 3}
	line := summaryLine(res)
	got := line["metrics"].(map[string]any)
	want := 0
	for _, d := range endToEnd {
		if d.listed {
			want++
			if _, ok := got[d.name]; !ok {
				t.Errorf("listed metric %s missing", d.name)
			}
		}
	}
	if len(got) != want {
		t.Errorf("%d metrics in the line, want %d", len(got), want)
	}
	if len(line) != 4 {
		t.Errorf("line keys %v, want correct, attempted, failed, metrics", line)
	}
}
