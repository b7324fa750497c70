// Package metrics implements the measurement apparatus of the paper's
// evaluation: precision, recall, F1 and average relative error of a
// reported frequent-items set against exact ground truth, plus the
// throughput timer used for the updates-per-millisecond plots.
package metrics

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"streamfreq/internal/core"
)

// Accuracy holds the quality metrics the paper plots for one
// (algorithm, workload, parameters) cell.
type Accuracy struct {
	// Precision is |reported ∩ truth| / |reported|; 1 if nothing reported.
	Precision float64
	// Recall is |reported ∩ truth| / |truth|; 1 if truth is empty.
	Recall float64
	// F1 is the harmonic mean of precision and recall.
	F1 float64
	// ARE is the average relative error of the estimated counts over the
	// *true* frequent items (the paper's definition): for each true heavy
	// hitter, |est − true| / true, using estimate 0 when the algorithm
	// did not report the item. Zero when truth is empty.
	ARE float64
	// MaxRE is the maximum relative error over the true frequent items.
	MaxRE float64
	// Reported and Truth are the set sizes, for context in reports.
	Reported, Truth int
}

// Evaluate compares a reported set against ground truth. truth must map
// every truly frequent item (count > threshold) to its exact count.
func Evaluate(reported []core.ItemCount, truth map[core.Item]int64) Accuracy {
	var acc Accuracy
	acc.Reported = len(reported)
	acc.Truth = len(truth)

	reportedSet := make(map[core.Item]int64, len(reported))
	for _, ic := range reported {
		reportedSet[ic.Item] = ic.Count
	}

	hits := 0
	for _, ic := range reported {
		if _, ok := truth[ic.Item]; ok {
			hits++
		}
	}
	if len(reported) == 0 {
		acc.Precision = 1
	} else {
		acc.Precision = float64(hits) / float64(len(reported))
	}
	if len(truth) == 0 {
		acc.Recall = 1
		acc.ARE = 0
		acc.F1 = f1(acc.Precision, acc.Recall)
		return acc
	}
	acc.Recall = float64(hits) / float64(len(truth))

	// Sum in item order: a float sum taken in map order differs in its
	// last bits from run to run, and the accuracy golden compares ARE
	// exactly.
	var sumRE float64
	for _, it := range slices.Sorted(maps.Keys(truth)) {
		exact := truth[it]
		est := reportedSet[it] // 0 when missed
		re := math.Abs(float64(est)-float64(exact)) / float64(exact)
		sumRE += re
		if re > acc.MaxRE {
			acc.MaxRE = re
		}
	}
	acc.ARE = sumRE / float64(len(truth))
	acc.F1 = f1(acc.Precision, acc.Recall)
	return acc
}

func f1(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the metrics in the compact form used by harness tables.
func (a Accuracy) String() string {
	return fmt.Sprintf("prec=%.3f recall=%.3f ARE=%.4f (reported=%d truth=%d)",
		a.Precision, a.Recall, a.ARE, a.Reported, a.Truth)
}

// TruthMap extracts the items with count ≥ threshold from exact counts,
// as a map suitable for Evaluate.
func TruthMap(exactTop []core.ItemCount, threshold int64) map[core.Item]int64 {
	t := make(map[core.Item]int64)
	for _, ic := range exactTop {
		if ic.Count >= threshold {
			t[ic.Item] = ic.Count
		}
	}
	return t
}

// Throughput measures update rate. Start it, run updates, then Stop with
// the number of updates performed.
type Throughput struct {
	start time.Time
}

// StartTimer begins a throughput measurement.
func StartTimer() Throughput {
	return Throughput{start: time.Now()}
}

// UpdatesPerMilli returns the rate after processing n updates.
func (t Throughput) UpdatesPerMilli(n int) float64 {
	elapsed := time.Since(t.start)
	if elapsed <= 0 {
		return math.Inf(1)
	}
	return float64(n) / (float64(elapsed) / float64(time.Millisecond))
}
