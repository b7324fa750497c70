package harness

import (
	"fmt"
	"sort"

	"streamfreq"
	"streamfreq/internal/core"
	"streamfreq/internal/exact"
	"streamfreq/internal/metrics"
	"streamfreq/internal/sketches"
	"streamfreq/internal/zipf"
)

// Runner executes one experiment under a configuration.
type Runner func(Config) (Result, error)

// Experiments maps experiment ids to runners, in display order via
// ExperimentOrder; each Run function documents its figure.
var Experiments = map[string]Runner{
	"T1": RunT1, "F1": RunF1, "F2": RunF2, "F3": RunF3, "F4": RunF4,
	"F5": RunF5, "F6": RunF6, "F7": RunF7, "F8": RunF8, "F9": RunF9,
	"F10": RunF10, "F11": RunF11, "F12": RunF12, "X1": RunX1, "X2": RunX2,
}

// ExperimentOrder lists ids in the paper's order: the table, the
// figures, then the extensions.
var ExperimentOrder = []string{
	"T1", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
	"F10", "F11", "F12", "X1", "X2",
}

// Run executes the named experiment and emits its table.
func Run(id string, c Config) (Result, error) {
	r, ok := Experiments[id]
	if !ok {
		return Result{}, fmt.Errorf("harness: unknown experiment %q", id)
	}
	c = c.withDefaults()
	res, err := r(c)
	if err != nil {
		return Result{}, fmt.Errorf("harness: %s: %w", id, err)
	}
	if err := c.emit(res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// RunAll executes every experiment in order.
func RunAll(c Config) ([]Result, error) {
	var out []Result
	for _, id := range ExperimentOrder {
		res, err := Run(id, c)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// sweepSkew runs one accuracy/throughput sweep over Zipf skews for the
// given roster.
func sweepSkew(c Config, exp string, algos []string) (Result, error) {
	res := Result{Exp: exp}
	for _, z := range DefaultSkews {
		stream, err := c.zipfStream(z, uint64(z*1000))
		if err != nil {
			return res, err
		}
		truth := exactTruth(stream)
		for _, algo := range algos {
			row, err := runCell(exp, algo, "skew", z, c.Phi, c.Seed, c.IngestBatch, stream, truth)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// sweepPhi runs one sweep over thresholds at fixed skew 1.0.
func sweepPhi(c Config, exp string, algos []string, mkStream func(Config) ([]core.Item, error)) (Result, error) {
	res := Result{Exp: exp}
	stream, err := mkStream(c)
	if err != nil {
		return res, err
	}
	truth := exactTruth(stream)
	for _, phi := range c.scalePhis() {
		for _, algo := range algos {
			row, err := runCell(exp, algo, "phi", phi, phi, c.Seed, c.IngestBatch, stream, truth)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// RunT1 prints the paper's Table 1: the per-algorithm summary of space
// and update-cost bounds. It is a documentation table — the measured
// columns are filled from a small calibration stream so the table also
// serves as a smoke test.
func RunT1(c Config) (Result, error) {
	res := Result{Exp: "T1", Title: "Algorithm summary (space/update bounds, calibrated at φ=" + fmt.Sprint(c.Phi) + ")"}
	stream, err := c.zipfStream(1.0, 1)
	if err != nil {
		return res, err
	}
	truth := exactTruth(stream)
	for _, algo := range c.Algorithms {
		row, err := runCell("T1", algo, "phi", c.Phi, c.Phi, c.Seed, c.IngestBatch, stream, truth)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RunF1 reproduces the counter-based accuracy-vs-skew figure.
func RunF1(c Config) (Result, error) {
	res, err := sweepSkew(c, "F1", c.counterAlgos())
	res.Title = "Counter-based accuracy vs Zipf skew (φ=" + fmt.Sprint(c.Phi) + ")"
	return res, err
}

// RunF2 reproduces the counter-based throughput-vs-skew figure.
// (Throughput is measured in every cell; F2 is the same sweep presented
// throughput-first, kept as a separate id to mirror the paper's figures.)
func RunF2(c Config) (Result, error) {
	res, err := sweepSkew(c, "F2", c.counterAlgos())
	res.Title = "Counter-based update throughput vs Zipf skew"
	return res, err
}

// RunF3 reproduces the counter-based accuracy/space-vs-φ figure.
func RunF3(c Config) (Result, error) {
	res, err := sweepPhi(c, "F3", c.counterAlgos(), func(c Config) ([]core.Item, error) {
		return c.zipfStream(1.0, 3)
	})
	res.Title = "Counter-based accuracy and space vs φ (Zipf z=1.0)"
	return res, err
}

// RunF4 reproduces the counter-based HTTP-trace figure.
func RunF4(c Config) (Result, error) {
	res, err := sweepPhi(c, "F4", c.counterAlgos(), func(c Config) ([]core.Item, error) {
		return c.httpStream(4)
	})
	res.Title = "Counter-based on HTTP-like trace vs φ"
	return res, err
}

// RunF5 reproduces the counter-based UDP-trace figure.
func RunF5(c Config) (Result, error) {
	res, err := sweepPhi(c, "F5", c.counterAlgos(), func(c Config) ([]core.Item, error) {
		return c.udpStream(5)
	})
	res.Title = "Counter-based on UDP-flow trace vs φ"
	return res, err
}

// RunF6 reproduces the sketch accuracy-vs-skew figure.
func RunF6(c Config) (Result, error) {
	res, err := sweepSkew(c, "F6", c.sketchAlgos())
	res.Title = "Sketch accuracy vs Zipf skew (φ=" + fmt.Sprint(c.Phi) + ")"
	return res, err
}

// RunF7 reproduces the sketch throughput-vs-skew figure. It replays
// per arrival whatever Config.IngestBatch says: the paper ranks the
// sketches by per-update cost, which the batched path's one collapse per
// batch would hide (on a small universe at high skew every sketch is
// bound by the collapse, not by its own rows).
func RunF7(c Config) (Result, error) {
	c.IngestBatch = -1
	res, err := sweepSkew(c, "F7", c.sketchAlgos())
	res.Title = "Sketch update throughput vs Zipf skew (per-arrival replay)"
	return res, err
}

// RunF8 reproduces the sketch accuracy/space-vs-φ figure.
func RunF8(c Config) (Result, error) {
	res, err := sweepPhi(c, "F8", c.sketchAlgos(), func(c Config) ([]core.Item, error) {
		return c.zipfStream(1.0, 8)
	})
	res.Title = "Sketch accuracy and space vs φ (Zipf z=1.0)"
	return res, err
}

// RunF9 reproduces the sketch HTTP-trace figure.
func RunF9(c Config) (Result, error) {
	res, err := sweepPhi(c, "F9", c.sketchAlgos(), func(c Config) ([]core.Item, error) {
		return c.httpStream(9)
	})
	res.Title = "Sketch on HTTP-like trace vs φ"
	return res, err
}

// RunF10 reproduces the space-vs-φ comparison across the full roster.
func RunF10(c Config) (Result, error) {
	res, err := sweepPhi(c, "F10", c.Algorithms, func(c Config) ([]core.Item, error) {
		return c.zipfStream(1.0, 10)
	})
	res.Title = "Space vs φ, all algorithms (Zipf z=1.0)"
	return res, err
}

// RunF11 is the sketch-depth ablation: accuracy and throughput of
// Count-Min hierarchies as depth varies under a fixed total counter
// budget.
func RunF11(c Config) (Result, error) {
	res := Result{Exp: "F11", Title: "CMH depth ablation (fixed counter budget)"}
	stream, err := c.zipfStream(1.0, 11)
	if err != nil {
		return res, err
	}
	truth := exactTruth(stream)
	budget := 8 * int(2/c.Phi)
	threshold := int64(c.Phi * float64(len(stream)))
	if threshold < 1 {
		threshold = 1
	}
	truthMap := metrics.TruthMap(truth.TopK(truth.Distinct()), threshold)
	for _, depth := range []int{1, 2, 3, 4, 6, 8} {
		width := budget / depth
		h, err := sketches.NewCountMinHierarchy(sketches.HierarchyConfig{
			Depth: depth, Width: width, Bits: 8, Seed: c.Seed,
		})
		if err != nil {
			return res, err
		}
		timer := metrics.StartTimer()
		ingest(h, stream, c.IngestBatch)
		rate := timer.UpdatesPerMilli(len(stream))
		acc := metrics.Evaluate(h.Query(threshold), truthMap)
		res.Rows = append(res.Rows, Row{
			Exp: "F11", Algo: fmt.Sprintf("CMH-d%d", depth), XLabel: "depth", X: float64(depth),
			Precision: acc.Precision, Recall: acc.Recall, ARE: acc.ARE,
			UpdPerMs: rate, Bytes: h.Bytes(),
		})
	}
	return res, nil
}

// RunF12 is the stream-length scaling figure: throughput and accuracy at
// n ∈ {N/100, N/10, N}.
func RunF12(c Config) (Result, error) {
	res := Result{Exp: "F12", Title: "Stream-length scaling (Zipf z=1.0)"}
	for _, frac := range []int{100, 10, 1} {
		sub := c
		sub.N = c.N / frac
		if sub.N < 1000 {
			sub.N = 1000
		}
		stream, err := sub.zipfStream(1.0, 12)
		if err != nil {
			return res, err
		}
		truth := exactTruth(stream)
		for _, algo := range c.Algorithms {
			row, err := runCell("F12", algo, "n", float64(sub.N), c.Phi, c.Seed, c.IngestBatch, stream, truth)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// RunX1 is the extension experiment from Charikar et al. §4.2: find the
// items whose frequency changed most between two streams by sketch
// subtraction. Reported "precision" is the fraction of the true top-10
// max-change items recovered in the sketch's top-10; ARE is the relative
// error of the estimated change for those recovered.
func RunX1(c Config) (Result, error) {
	res := Result{Exp: "X1", Title: "Max-change between two streams via sketch subtraction"}
	const topK = 10
	// Two correlated streams: same base distribution, with a planted set
	// of surging/collapsing items.
	g1, err := zipf.NewGenerator(c.Universe, 1.0, c.Seed^0xA1, true)
	if err != nil {
		return res, err
	}
	g2, err := zipf.NewGenerator(c.Universe, 1.0, c.Seed^0xA2, true)
	if err != nil {
		return res, err
	}
	s1 := g1.Stream(c.N)
	s2 := g2.Stream(c.N)
	// Plant strong changes: items surging in stream 2.
	surge := c.N / 50
	for i := 0; i < topK; i++ {
		it := core.Item(0xC0FFEE + uint64(i))
		for j := 0; j < surge*(i+1)/topK; j++ {
			s2 = append(s2, it)
		}
	}

	truth1, truth2 := exactTruth(s1), exactTruth(s2)

	for _, mk := range []struct {
		name string
		new  func() core.Summary
	}{
		{"CS", func() core.Summary { return sketches.NewCountSketch(5, 2*int(2/c.Phi), c.Seed) }},
		{"CM", func() core.Summary { return sketches.NewCountMin(4, 2*int(2/c.Phi), c.Seed) }},
		{"CGT", func() core.Summary { return sketches.NewCGT(4, int(2/c.Phi), 64, c.Seed) }},
	} {
		a, b := mk.new(), mk.new()
		timer := metrics.StartTimer()
		ingest(a, s1, c.IngestBatch)
		ingest(b, s2, c.IngestBatch)
		rate := timer.UpdatesPerMilli(len(s1) + len(s2))
		if err := b.(core.Subtractor).Subtract(a); err != nil {
			return res, err
		}

		// True top-change items.
		type change struct {
			it    core.Item
			delta int64
		}
		seen := map[core.Item]bool{}
		var changes []change
		collect := func(t *exact.Counter) {
			for _, ic := range t.TopK(t.Distinct()) {
				if seen[ic.Item] {
					continue
				}
				seen[ic.Item] = true
				d := truth2.Estimate(ic.Item) - truth1.Estimate(ic.Item)
				if d < 0 {
					d = -d
				}
				changes = append(changes, change{ic.Item, d})
			}
		}
		collect(truth1)
		collect(truth2)
		sort.Slice(changes, func(i, j int) bool { return changes[i].delta > changes[j].delta })
		if len(changes) > topK {
			changes = changes[:topK]
		}

		// Sketch's view: estimate |difference| for the true candidates plus
		// planted items, and score recovery.
		hit := 0
		var sumRE float64
		for _, ch := range changes {
			est := b.Estimate(ch.it)
			if est < 0 {
				est = -est
			}
			if ch.delta > 0 {
				re := float64(abs64(est-ch.delta)) / float64(ch.delta)
				sumRE += re
				// Recovered if the sketch sees at least half the change.
				if est >= ch.delta/2 {
					hit++
				}
			}
		}
		prec := 1.0
		if len(changes) > 0 {
			prec = float64(hit) / float64(len(changes))
		}
		are := 0.0
		if len(changes) > 0 {
			are = sumRE / float64(len(changes))
		}
		res.Rows = append(res.Rows, Row{
			Exp: "X1", Algo: mk.name, XLabel: "topk", X: float64(topK),
			Precision: prec, Recall: prec, ARE: are, UpdPerMs: rate, Bytes: b.Bytes(),
		})
	}
	return res, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// RunX2 is the distributed-merge experiment: the stream is split across
// 8 shards, each summarized independently; shard summaries are merged
// and the merged summary is scored against the whole-stream truth, next
// to a single-summary control.
func RunX2(c Config) (Result, error) {
	res := Result{Exp: "X2", Title: "Merged shard summaries vs single-stream summary (8 shards)"}
	const shards = 8
	stream, err := c.zipfStream(1.0, 0xB2)
	if err != nil {
		return res, err
	}
	truth := exactTruth(stream)
	threshold := int64(c.Phi * float64(len(stream)))
	if threshold < 1 {
		threshold = 1
	}
	truthMap := metrics.TruthMap(truth.TopK(truth.Distinct()), threshold)

	mergeable := []string{"F", "SSH", "LC", "CM", "CS", "CMH", "CSH", "CGT"}
	for _, algo := range mergeable {
		inRoster := false
		for _, a := range c.Algorithms {
			if a == algo {
				inRoster = true
				break
			}
		}
		if !inRoster {
			continue
		}
		// Shard summaries.
		parts := make([]core.Summary, shards)
		for i := range parts {
			parts[i], err = streamfreq.New(algo, c.Phi, c.Seed)
			if err != nil {
				return res, err
			}
		}
		// Partition round-robin, then replay each part through the same
		// configured ingest path as the control, so the merged-vs-single
		// throughput comparison isolates sharding rather than the replay
		// path.
		timer := metrics.StartTimer()
		if c.IngestBatch < 0 {
			for i, it := range stream {
				parts[i%shards].Update(it, 1)
			}
		} else {
			chunk := c.IngestBatch
			if chunk <= 0 {
				chunk = core.DefaultBatchSize
			}
			buf := make([]core.Item, 0, chunk)
			for j := range parts {
				buf = buf[:0]
				for i := j; i < len(stream); i += shards {
					buf = append(buf, stream[i])
					if len(buf) == chunk {
						core.UpdateAll(parts[j], buf)
						buf = buf[:0]
					}
				}
				if len(buf) > 0 {
					core.UpdateAll(parts[j], buf)
				}
			}
		}
		rate := timer.UpdatesPerMilli(len(stream))
		merged := parts[0]
		for i := 1; i < shards; i++ {
			if err := merged.(core.Merger).Merge(parts[i]); err != nil {
				return res, fmt.Errorf("%s: %w", algo, err)
			}
		}
		acc := metrics.Evaluate(merged.Query(threshold), truthMap)
		res.Rows = append(res.Rows, Row{
			Exp: "X2", Algo: algo + "-merged", XLabel: "shards", X: shards,
			Precision: acc.Precision, Recall: acc.Recall, ARE: acc.ARE,
			UpdPerMs: rate, Bytes: merged.Bytes(),
		})

		// Single-summary control.
		control, err := streamfreq.New(algo, c.Phi, c.Seed)
		if err != nil {
			return res, err
		}
		ctimer := metrics.StartTimer()
		ingest(control, stream, c.IngestBatch)
		crate := ctimer.UpdatesPerMilli(len(stream))
		cacc := metrics.Evaluate(control.Query(threshold), truthMap)
		res.Rows = append(res.Rows, Row{
			Exp: "X2", Algo: algo + "-single", XLabel: "shards", X: 1,
			Precision: cacc.Precision, Recall: cacc.Recall, ARE: cacc.ARE,
			UpdPerMs: crate, Bytes: control.Bytes(),
		})
	}
	return res, nil
}
