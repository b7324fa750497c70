package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 of 200 samples is the second-largest value, not a
// tail estimate.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of vals by nearest rank,
// and whether at least minBeyond samples lie beyond it. vals need not be
// sorted and is not modified.
func percentile(vals []float64, p float64) (float64, bool) {
	n := len(vals)
	if n == 0 || n-1-rank(n, p) < minBeyond {
		return 0, false
	}
	s := sortedCopy(vals)
	return s[rank(n, p)], true
}

// percentileOrMax is percentile for per-layer metrics, which must always
// carry a number: when too few samples support the percentile it reports
// the largest sample instead (0 with no samples).
func percentileOrMax(vals []float64, p float64) float64 {
	if v, ok := percentile(vals, p); ok {
		return v
	}
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	if p > 0.5 {
		return s[len(s)-1]
	}
	return s[rank(len(s), p)]
}

// rank is the 0-based nearest-rank index of quantile p among n samples
// (the epsilon keeps 0.9*100 from rounding up to rank 91).
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// quartiles returns the first quartile, median and third quartile of
// vals with the same "exclusive" interpolation as Python's
// statistics.quantiles(vals, n=4), which is how run-to-run spread is
// judged. It needs at least two values.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ack is one acknowledged ingest batch of a stream.
type ack struct {
	at    time.Time
	items int64
}

// answer is one query answer that carries the stream length n it was
// computed over.
type answer struct {
	key string
	at  time.Time
	n   int64
}

// freshLags returns, for each answer, how stale it was: the answer time
// minus the ack time of the oldest batch acknowledged before the answer
// that the answer does not include yet, or 0 when it includes every one.
// The answer is taken to include acks in ack order, so it covers the
// longest ack prefix whose items fit in its n. acks[key] must be sorted
// by time. Lags are in milliseconds.
func freshLags(acks map[string][]ack, answers []answer) []float64 {
	cum := make(map[string][]int64, len(acks))
	for key, as := range acks {
		c := make([]int64, len(as)+1)
		for i, a := range as {
			c[i+1] = c[i] + a.items
		}
		cum[key] = c
	}
	out := make([]float64, 0, len(answers))
	for _, a := range answers {
		as, c := acks[a.key], cum[a.key]
		// included = number of prefix batches whose items fit in n.
		included := sort.Search(len(as), func(i int) bool { return c[i+1] > a.n })
		lag := 0.0
		if included < len(as) && as[included].at.Before(a.at) {
			lag = ms(a.at.Sub(as[included].at))
		}
		out = append(out, lag)
	}
	return out
}
