package metrics

import (
	"math"
	"testing"

	"streamfreq/internal/core"
)

func ic(item core.Item, count int64) core.ItemCount {
	return core.ItemCount{Item: item, Count: count}
}

func TestEvaluatePerfect(t *testing.T) {
	truth := map[core.Item]int64{1: 100, 2: 50}
	reported := []core.ItemCount{ic(1, 100), ic(2, 50)}
	a := Evaluate(reported, truth)
	if a.Precision != 1 || a.Recall != 1 || a.ARE != 0 || a.F1 != 1 {
		t.Errorf("perfect report scored %+v", a)
	}
}

func TestEvaluateFalsePositives(t *testing.T) {
	truth := map[core.Item]int64{1: 100}
	reported := []core.ItemCount{ic(1, 100), ic(2, 40), ic(3, 30)}
	a := Evaluate(reported, truth)
	if math.Abs(a.Precision-1.0/3) > 1e-12 {
		t.Errorf("precision = %v, want 1/3", a.Precision)
	}
	if a.Recall != 1 {
		t.Errorf("recall = %v, want 1", a.Recall)
	}
}

func TestEvaluateMisses(t *testing.T) {
	truth := map[core.Item]int64{1: 100, 2: 80}
	reported := []core.ItemCount{ic(1, 90)}
	a := Evaluate(reported, truth)
	if a.Recall != 0.5 {
		t.Errorf("recall = %v, want 0.5", a.Recall)
	}
	// ARE: item1 |90-100|/100 = 0.1; item2 missed -> |0-80|/80 = 1.
	if math.Abs(a.ARE-0.55) > 1e-12 {
		t.Errorf("ARE = %v, want 0.55", a.ARE)
	}
	if math.Abs(a.MaxRE-1.0) > 1e-12 {
		t.Errorf("MaxRE = %v, want 1", a.MaxRE)
	}
}

func TestEvaluateEmptyReport(t *testing.T) {
	a := Evaluate(nil, map[core.Item]int64{1: 10})
	if a.Precision != 1 {
		t.Errorf("empty report precision = %v, want 1 (vacuous)", a.Precision)
	}
	if a.Recall != 0 {
		t.Errorf("recall = %v, want 0", a.Recall)
	}
	if a.ARE != 1 {
		t.Errorf("ARE = %v, want 1 (all mass missed)", a.ARE)
	}
}

func TestEvaluateEmptyTruth(t *testing.T) {
	a := Evaluate([]core.ItemCount{ic(5, 5)}, nil)
	if a.Recall != 1 {
		t.Errorf("recall = %v, want 1 (vacuous)", a.Recall)
	}
	if a.Precision != 0 {
		t.Errorf("precision = %v, want 0", a.Precision)
	}
	if a.ARE != 0 {
		t.Errorf("ARE = %v, want 0", a.ARE)
	}
}

func TestEvaluateBothEmpty(t *testing.T) {
	a := Evaluate(nil, nil)
	if a.Precision != 1 || a.Recall != 1 {
		t.Errorf("both empty scored %+v", a)
	}
}

func TestF1(t *testing.T) {
	truth := map[core.Item]int64{1: 10, 2: 10}
	reported := []core.ItemCount{ic(1, 10), ic(3, 10)}
	a := Evaluate(reported, truth)
	// p = 0.5, r = 0.5, F1 = 0.5.
	if math.Abs(a.F1-0.5) > 1e-12 {
		t.Errorf("F1 = %v, want 0.5", a.F1)
	}
}

func TestTruthMap(t *testing.T) {
	top := []core.ItemCount{ic(1, 100), ic(2, 50), ic(3, 10)}
	m := TruthMap(top, 50)
	if len(m) != 2 || m[1] != 100 || m[2] != 50 {
		t.Errorf("TruthMap = %v", m)
	}
}

func TestThroughputPositive(t *testing.T) {
	tm := StartTimer()
	s := 0
	for i := 0; i < 1000000; i++ {
		s += i
	}
	_ = s
	rate := tm.UpdatesPerMilli(1000000)
	if rate <= 0 {
		t.Errorf("rate = %v", rate)
	}
}

func TestSeriesAdd(t *testing.T) {
	var s Series
	s.Add(1, 2)
	s.Add(3, 4)
	if len(s.X) != 2 || s.X[1] != 3 || s.Y[1] != 4 {
		t.Errorf("series = %+v", s)
	}
}

func TestAccuracyString(t *testing.T) {
	a := Accuracy{Precision: 1, Recall: 0.5, ARE: 0.25, Reported: 3, Truth: 6}
	got := a.String()
	if got == "" {
		t.Error("empty string")
	}
}
