package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{n: 19, p: 0.5, ok: false},
		{n: 20, p: 0.5, ok: true, want: 10},
		{n: 99, p: 0.9, ok: false},
		{n: 100, p: 0.9, ok: true, want: 90},
		{n: 999, p: 0.99, ok: false},
		{n: 1000, p: 0.99, ok: true, want: 990},
		{n: 0, p: 0.5, ok: false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSetPctIsNullWithoutSupport(t *testing.T) {
	m := metricSet{}
	m.setPct("ingest_p99_ms", seq(500), 0.99)
	m.setPct("ingest_p50_ms", seq(500), 0.5)
	if v := m["ingest_p99_ms"]; v.Value != nil || v.Samples != 500 {
		t.Errorf("p99 of 500 samples = %+v, want null with the sample count", v)
	}
	if v := m["ingest_p50_ms"]; v.Value == nil || *v.Value != 250 {
		t.Errorf("p50 of 1..500 = %+v, want 250", v)
	}
}

func TestPercentileOrMax(t *testing.T) {
	if got := percentileOrMax(seq(50), 0.99); got != 50 {
		t.Errorf("unsupported p99 = %g, want the maximum 50", got)
	}
	if got := percentileOrMax(seq(5), 0.5); got != 3 {
		t.Errorf("unsupported p50 = %g, want nearest rank 3", got)
	}
	if got := percentileOrMax(nil, 0.5); got != 0 {
		t.Errorf("no samples = %g, want 0", got)
	}
}

// The reference values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolated, as Python does
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7, 1, 3, 9, 4}, 2, 4, 8},
	} {
		q1, med, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(med-tc.med) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.in, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestFreshLags(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	acks := map[string][]ack{
		"":   {{at(-1000), 1000}, {at(0), 10}, {at(100), 10}, {at(200), 10}},
		"ns": {{at(50), 5}},
	}
	answers := []answer{
		{key: "", at: at(250), n: 1030}, // includes all three batches
		{key: "", at: at(250), n: 1010}, // misses the batch acked at 100
		{key: "", at: at(150), n: 1020}, // the batch at 200 was not acked yet
		{key: "", at: at(250), n: 1015}, // a partial batch is not included
		{key: "", at: at(300), n: 1000}, // misses everything acked since 0
		{key: "ns", at: at(80), n: 0},   // keys are separate streams
		{key: "ns", at: at(80), n: 5},
	}
	want := []float64{0, 150, 0, 150, 300, 30, 0}
	got := freshLags(acks, answers)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("answer %d: lag %g ms, want %g", i, got[i], want[i])
		}
	}
}
