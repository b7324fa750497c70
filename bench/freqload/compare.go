package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict of one (workload, metric) pair in -compare.
const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing" // no reading in one of the sets
)

// judge compares set b against baseline set a for one metric: worse when
// b's median is worse than a's by more than the bound; unresolved when
// either set's quartile spread is wider than the bound, unless every run
// of b reads better than every run of a; within otherwise.
func judge(def *metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictMissing
	}
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	allowed := def.bound.allowed(amed)
	if aq3-aq1 > allowed || bq3-bq1 > allowed {
		if allBetter(def, a, b) {
			return verdictWithin
		}
		return verdictUnresolved
	}
	if def.worse(amed, bmed) {
		return verdictWorse
	}
	return verdictWithin
}

func allBetter(def *metricDef, a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if def.higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// runCompare prints one row per (workload, listed metric) of either file
// and returns the exit status: 1 when any pair is worse or missing from
// one set, or when either set holds an incorrect run.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "freqload:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "freqload:", err)
		return 2
	}
	sa, sb := collect(a), collect(b)
	status := 0
	for _, s := range []struct {
		name string
		set  runSet
	}{{"A", sa}, {"B", sb}} {
		for _, wl := range sortedKeys(s.set.incorrect) {
			fmt.Fprintf(w, "set %s: %d incorrect run(s) of %s\n", s.name, s.set.incorrect[wl], wl)
			status = 1
		}
		for _, wl := range sortedKeys(s.set.invalid) {
			fmt.Fprintf(w, "set %s: %d run(s) of %s left out: the generator fell behind its schedule\n", s.name, s.set.invalid[wl], wl)
		}
	}
	keys := map[pairKey]bool{}
	for _, vals := range []map[pairKey][]float64{sa.values, sb.values} {
		for k := range vals {
			keys[k] = true
		}
	}
	sorted := make([]pairKey, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].workload != sorted[j].workload {
			return sorted[i].workload < sorted[j].workload
		}
		return sorted[i].metric < sorted[j].metric
	})
	counts := map[string]int{}
	fmt.Fprintf(w, "%-13s %-20s %10s %22s %10s %22s  %s\n", "workload", "metric", "median A", "quartiles A", "median B", "quartiles B", "verdict")
	for _, k := range sorted {
		def := findMetric(k.metric)
		x, y := sa.values[k], sb.values[k]
		v := judge(def, x, y)
		counts[v]++
		if v == verdictWorse || v == verdictMissing {
			status = 1
		}
		if v == verdictMissing {
			fmt.Fprintf(w, "%-13s %-20s %s (n=%d/%d)\n", k.workload, k.metric, v, len(x), len(y))
			continue
		}
		aq1, amed, aq3 := quartiles(x)
		bq1, bmed, bq3 := quartiles(y)
		fmt.Fprintf(w, "%-13s %-20s %10.4g %10.4g..%-10.4g %10.4g %10.4g..%-10.4g  %s (bound %.4g %s, n=%d/%d)\n",
			k.workload, k.metric, amed, aq1, aq3, bmed, bq1, bq3, v, def.bound.allowed(amed), def.unit, len(x), len(y))
	}
	fmt.Fprintf(w, "%d within, %d worse, %d unresolved, %d missing\n",
		counts[verdictWithin], counts[verdictWorse], counts[verdictUnresolved], counts[verdictMissing])
	return status
}

type pairKey struct{ workload, metric string }

// runSet is one result file's untraced runs: each listed metric's
// readings per workload from the correct runs that kept to their
// schedule, and per workload how many runs were incorrect or invalid.
type runSet struct {
	values    map[pairKey][]float64
	incorrect map[string]int
	invalid   map[string]int
}

func collect(recs []*result) runSet {
	s := runSet{values: map[pairKey][]float64{}, incorrect: map[string]int{}, invalid: map[string]int{}}
	for _, r := range recs {
		switch {
		case r.Trace:
			continue
		case !r.Correct:
			s.incorrect[r.Workload]++
			continue
		case !r.Valid:
			// Its latencies include the generator's own delays.
			s.invalid[r.Workload]++
			continue
		}
		for _, def := range endToEnd {
			if !def.listed {
				continue
			}
			if v, ok := r.Metrics[def.name]; ok && v.Value != nil {
				k := pairKey{r.Workload, def.name}
				s.values[k] = append(s.values[k], *v.Value)
			}
		}
	}
	return s
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
