package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// record is a correct, valid untraced run reading v on every listed
// metric.
func record(workload string, v float64) *result {
	m := metricSet{}
	for _, d := range endToEnd {
		if d.listed {
			m.set(d.name, v, 1)
		}
	}
	return &result{Workload: workload, Correct: true, Valid: true, Attempted: 1, Metrics: m}
}

func writeSet(t *testing.T, name string, recs ...*result) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	for _, r := range recs {
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func steadySet(workload string) []*result {
	var out []*result
	for _, v := range []float64{1, 1.001, 0.999, 1, 1.002} {
		out = append(out, record(workload, v))
	}
	return out
}

func TestCompareAgreeingSets(t *testing.T) {
	a := writeSet(t, "a.jsonl", steadySet("bulk-zipf")...)
	b := writeSet(t, "b.jsonl", steadySet("bulk-zipf")...)
	var out strings.Builder
	if status := runCompare(&out, a, b); status != 0 {
		t.Fatalf("status %d for two equal sets:\n%s", status, out.String())
	}
}

func TestCompareFailsOnAnIncorrectRun(t *testing.T) {
	bad := record("bulk-zipf", 1)
	bad.Correct = false
	a := writeSet(t, "a.jsonl", steadySet("bulk-zipf")...)
	b := writeSet(t, "b.jsonl", append(steadySet("bulk-zipf"), bad)...)
	var out strings.Builder
	if status := runCompare(&out, a, b); status != 1 {
		t.Fatalf("status %d with an incorrect run in B, want 1:\n%s", status, out.String())
	}
	if !strings.Contains(out.String(), "1 incorrect run(s) of bulk-zipf") {
		t.Errorf("the incorrect run is not reported:\n%s", out.String())
	}
}

func TestCompareFailsOnAPairMissingFromB(t *testing.T) {
	// Every run of small-text in B failed its gates: the workload must not
	// silently drop out of the report.
	var b []*result
	for _, r := range steadySet("small-text") {
		r.Correct = false
		b = append(b, r)
	}
	pathA := writeSet(t, "a.jsonl", append(steadySet("bulk-zipf"), steadySet("small-text")...)...)
	pathB := writeSet(t, "b.jsonl", append(steadySet("bulk-zipf"), b...)...)
	var out strings.Builder
	if status := runCompare(&out, pathA, pathB); status != 1 {
		t.Fatalf("status %d with small-text missing from B, want 1:\n%s", status, out.String())
	}
	if !strings.Contains(out.String(), "small-text    peak_rss_mb          missing") {
		t.Errorf("the missing pair is not reported:\n%s", out.String())
	}
}

func TestCompareLeavesOutInvalidRuns(t *testing.T) {
	// An invalid run's latencies include the generator's delays; pooled,
	// these two would make B's set spread past every bound.
	var late []*result
	for range 2 {
		r := record("bulk-zipf", 3)
		r.Valid = false
		late = append(late, r)
	}
	a := writeSet(t, "a.jsonl", steadySet("bulk-zipf")...)
	b := writeSet(t, "b.jsonl", append(steadySet("bulk-zipf"), late...)...)
	var out strings.Builder
	if status := runCompare(&out, a, b); status != 0 {
		t.Fatalf("status %d, want 0:\n%s", status, out.String())
	}
	if !strings.Contains(out.String(), "0 worse, 0 unresolved, 0 missing") {
		t.Errorf("invalid runs were pooled:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "2 run(s) of bulk-zipf left out") {
		t.Errorf("the left-out runs are not reported:\n%s", out.String())
	}
}

func TestCompareFailsOnAWorsePair(t *testing.T) {
	var slow []*result
	for _, r := range steadySet("bulk-zipf") {
		v := *r.Metrics["peak_rss_mb"].Value * 1.2
		metricSet(r.Metrics).set("peak_rss_mb", v, 1)
		slow = append(slow, r)
	}
	a := writeSet(t, "a.jsonl", steadySet("bulk-zipf")...)
	b := writeSet(t, "b.jsonl", slow...)
	if status := runCompare(io.Discard, a, b); status != 1 {
		t.Fatalf("status %d with peak_rss_mb 20%% worse, want 1", status)
	}
}
