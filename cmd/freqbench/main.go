// Command freqbench regenerates the tables and figures of the paper's
// evaluation (see DESIGN.md §3 for the experiment index).
//
// Usage:
//
//	freqbench -exp F1                 # one experiment, paper scale
//	freqbench -exp all -n 1000000     # full suite at reduced scale
//	freqbench -exp F6 -algos CMH,CGT -csv results.csv
//
// Paper scale (-n 10000000) takes minutes per experiment; start with
// -n 1000000 for a quick look. Output shapes, not absolute throughput,
// are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"streamfreq/internal/harness"
)

func main() {
	var (
		exp      = flag.String("exp", "T1", "experiment id (T1, F1..F12, X1, X2, or 'all')")
		n        = flag.Int("n", 10_000_000, "stream length")
		universe = flag.Int("universe", 1<<22, "distinct items in synthetic workloads")
		phi      = flag.Float64("phi", 0.001, "default query threshold fraction")
		seed     = flag.Uint64("seed", 20080824, "workload and hash seed")
		algos    = flag.String("algos", "", "comma-separated algorithm filter (default: all)")
		batch    = flag.Int("batch", 0, "ingest batch length (0 = default, negative = scalar per-item updates)")
		csvPath  = flag.String("csv", "", "also write machine-readable rows to this file")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		check    = flag.Bool("check", false, "verify the paper's qualitative claims against the results; exit 1 on failure")
	)
	flag.Parse()

	if *list {
		for _, id := range harness.ExperimentOrder {
			fmt.Println(id)
		}
		return
	}

	cfg := harness.Config{
		N:           *n,
		Universe:    *universe,
		Phi:         *phi,
		Seed:        *seed,
		IngestBatch: *batch,
		Out:         os.Stdout,
	}
	if *algos != "" {
		cfg.Algorithms = strings.Split(*algos, ",")
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		cfg.CSVOut = f
	}

	var results []harness.Result
	if strings.EqualFold(*exp, "all") {
		rs, err := harness.RunAll(cfg)
		if err != nil {
			fatal(err)
		}
		results = rs
	} else {
		for _, id := range strings.Split(*exp, ",") {
			res, err := harness.Run(strings.TrimSpace(id), cfg)
			if err != nil {
				fatal(err)
			}
			results = append(results, res)
		}
	}
	if *check {
		if failed := harness.CheckClaims(results, os.Stdout); failed > 0 {
			fatal(fmt.Errorf("%d claims failed", failed))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "freqbench:", err)
	os.Exit(1)
}
