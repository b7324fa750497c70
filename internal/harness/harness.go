// Package harness runs the reconstructed VLDB 2008 experiments and
// prints the rows/series of every figure and table in the paper's
// evaluation (Experiments is the index; freqbench -exp all -check prints
// measured results and the claim verdicts).
//
// Every experiment follows the paper's methodology:
//
//  1. Materialize one workload stream (so every algorithm sees identical
//     input).
//  2. Compute exact ground truth with a hash map.
//  3. For each algorithm, feed the stream through a freshly provisioned
//     summary under a wall-clock timer, then query at threshold φn.
//  4. Report precision, recall, ARE, update throughput, and space.
package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
	"time"

	"streamfreq"
	"streamfreq/internal/core"
	"streamfreq/internal/exact"
	"streamfreq/internal/metrics"
	"streamfreq/internal/trace"
	"streamfreq/internal/zipf"
)

// Config controls an experiment run.
type Config struct {
	// N is the stream length (the paper uses 10^7; tests use less).
	N int
	// Universe is the number of distinct items for synthetic Zipf data.
	Universe int
	// Phi is the default query threshold fraction.
	Phi float64
	// Seed drives workload and hash randomness.
	Seed uint64
	// Algorithms filters the roster (nil = all registered).
	Algorithms []string
	// IngestBatch is the replay batch length: 0 selects
	// core.DefaultBatchSize, and a negative value forces the scalar
	// per-item Update loop (the pre-batching code path, kept for A/B
	// throughput comparisons from cmd/freqbench -batch=-1).
	IngestBatch int
	// Out receives the human-readable tables.
	Out io.Writer
	// CSVOut, when non-nil, additionally receives machine-readable rows.
	CSVOut io.Writer
}

// Defaults returns the paper-scale configuration.
func Defaults() Config {
	return Config{
		N:        10_000_000,
		Universe: 1 << 22,
		Phi:      0.001,
		Seed:     20080824, // VLDB 2008 started August 24, 2008
	}
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	d := Defaults()
	if c.N == 0 {
		c.N = d.N
	}
	if c.Universe == 0 {
		c.Universe = d.Universe
	}
	if c.Phi == 0 {
		c.Phi = d.Phi
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = streamfreq.Algorithms()
	}
	return c
}

// counterAlgos / sketchAlgos split the configured roster.
func (c Config) counterAlgos() []string {
	var out []string
	for _, a := range c.Algorithms {
		if streamfreq.CounterBased(a) {
			out = append(out, a)
		}
	}
	return out
}

func (c Config) sketchAlgos() []string {
	var out []string
	for _, a := range c.Algorithms {
		if !streamfreq.CounterBased(a) {
			out = append(out, a)
		}
	}
	return out
}

// Row is one measured cell of a figure: one algorithm at one sweep point.
type Row struct {
	Exp       string  // experiment id (e.g. "F1")
	Algo      string  // paper code
	XLabel    string  // name of the sweep variable ("skew", "phi", ...)
	X         float64 // sweep value
	Precision float64
	Recall    float64
	ARE       float64
	UpdPerMs  float64
	// QueryMs is the latency of one threshold query on the loaded
	// summary, in milliseconds (the paper reports query times for the
	// sketch structures, where they differ by orders of magnitude).
	QueryMs float64
	Bytes   int
}

// Result collects all rows of one experiment.
type Result struct {
	Exp   string
	Title string
	Rows  []Row
}

// ingest replays stream into s per Config.IngestBatch; the policy
// (negative = scalar loop, otherwise batched) lives in streamfreq.Replay
// so the CLIs' -batch flag and the harness stay in lockstep.
func ingest(s core.Summary, stream []core.Item, batch int) {
	streamfreq.Replay(s, stream, batch)
}

// runCell feeds stream to a fresh instance of algo, measures throughput,
// queries at threshold, and scores against truth. Replay is batched (see
// Config.IngestBatch) so measured throughput reflects each algorithm's
// fastest ingest path, the quantity the paper's figures rank by.
func runCell(exp, algo, xlabel string, x float64, phi float64, seed uint64, batch int,
	stream []core.Item, truth *exact.Counter) (Row, error) {
	s, err := streamfreq.New(algo, phi, seed)
	if err != nil {
		return Row{}, err
	}
	timer := metrics.StartTimer()
	ingest(s, stream, batch)
	rate := timer.UpdatesPerMilli(len(stream))

	threshold := int64(phi * float64(len(stream)))
	if threshold < 1 {
		threshold = 1
	}
	qStart := time.Now()
	reported := s.Query(threshold)
	queryMs := float64(time.Since(qStart)) / float64(time.Millisecond)
	truthMap := metrics.TruthMap(truth.TopK(truth.Distinct()), threshold)
	acc := metrics.Evaluate(reported, truthMap)

	return Row{
		Exp: exp, Algo: algo, XLabel: xlabel, X: x,
		Precision: acc.Precision, Recall: acc.Recall, ARE: acc.ARE,
		UpdPerMs: rate, QueryMs: queryMs, Bytes: s.Bytes(),
	}, nil
}

// exactTruth counts a materialized stream.
func exactTruth(stream []core.Item) *exact.Counter {
	t := exact.New()
	for _, it := range stream {
		t.Update(it, 1)
	}
	return t
}

// zipfStream materializes a Zipf(z) stream per the configuration.
func (c Config) zipfStream(z float64, salt uint64) ([]core.Item, error) {
	g, err := zipf.NewGenerator(c.Universe, z, c.Seed^salt, true)
	if err != nil {
		return nil, err
	}
	return g.Stream(c.N), nil
}

// httpStream materializes the HTTP-like trace substitute.
func (c Config) httpStream(salt uint64) ([]core.Item, error) {
	cfg := trace.DefaultHTTPConfig(c.Seed ^ salt)
	if c.Universe < cfg.Objects {
		cfg.Objects = c.Universe
	}
	g, err := trace.NewHTTP(cfg)
	if err != nil {
		return nil, err
	}
	return g.Stream(c.N), nil
}

// udpStream materializes the UDP-flow trace substitute.
func (c Config) udpStream(salt uint64) ([]core.Item, error) {
	g, err := trace.NewUDP(trace.DefaultUDPConfig(c.Seed ^ salt))
	if err != nil {
		return nil, err
	}
	return g.Stream(c.N), nil
}

// emit renders the result as an aligned table (and CSV when configured).
func (c Config) emit(res Result) error {
	fmt.Fprintf(c.Out, "\n== %s: %s ==\n", res.Exp, res.Title)
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "algo\t%s\tprecision\trecall\tARE\tupd/ms\tquery ms\tbytes\n", xlabelOf(res))
	for _, r := range res.Rows {
		fmt.Fprintf(tw, "%s\t%g\t%.3f\t%.3f\t%.4f\t%.0f\t%.2f\t%d\n",
			r.Algo, r.X, r.Precision, r.Recall, r.ARE, r.UpdPerMs, r.QueryMs, r.Bytes)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if c.CSVOut != nil {
		w := csv.NewWriter(c.CSVOut)
		for _, r := range res.Rows {
			rec := []string{
				r.Exp, r.Algo, r.XLabel,
				strconv.FormatFloat(r.X, 'g', -1, 64),
				strconv.FormatFloat(r.Precision, 'f', 4, 64),
				strconv.FormatFloat(r.Recall, 'f', 4, 64),
				strconv.FormatFloat(r.ARE, 'f', 6, 64),
				strconv.FormatFloat(r.UpdPerMs, 'f', 1, 64),
				strconv.FormatFloat(r.QueryMs, 'f', 3, 64),
				strconv.Itoa(r.Bytes),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return err
		}
	}
	return nil
}

func xlabelOf(res Result) string {
	if len(res.Rows) > 0 {
		return res.Rows[0].XLabel
	}
	return "x"
}

// DefaultSkews is the Zipf sweep of the skew figures.
var DefaultSkews = []float64{0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0}

// DefaultPhis is the threshold sweep of the φ figures.
var DefaultPhis = []float64{0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01}

// scalePhis drops φ values whose threshold would round below ~5
// occurrences at the configured stream length, which would make
// precision/recall noise dominated; the paper's 10^7-item streams keep
// every default φ meaningful, but scaled-down test runs do not.
func (c Config) scalePhis() []float64 {
	var out []float64
	for _, phi := range DefaultPhis {
		if phi*float64(c.N) >= 5 {
			out = append(out, phi)
		}
	}
	if len(out) == 0 {
		out = []float64{c.Phi}
	}
	return out
}
