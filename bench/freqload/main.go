// Command freqload is the end-to-end benchmark of the serving tier: it
// builds freqd, freqrouter and freqmerge from the checkout, starts them
// on loopback, drives one of four workloads from a single load
// generator with two connections, checks the answers against exact
// counts, and prints every metric by name with its unit.
//
//	freqload -workload bulk-zipf -seed 7 -seconds 10 -trace 0
//	freqload -workload small-text -seed 7 -trace 1 -spans spans.jsonl
//	freqload -out runs.jsonl ...          # append the full result record
//	freqload -compare a.jsonl b.jsonl     # do two sets of runs agree?
//
// With -trace 0 the tier runs as real processes and the run reports the
// end-to-end metrics; with -trace 1 the same topology is built in this
// process from the constructors the commands use, spans are recorded at
// every layer boundary, and the run reports the per-layer metrics. The
// last line of standard output is always the run's JSON summary; the
// exit status is 1 when a correctness gate fails and 2 on a usage or
// set-up error. bench/README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		cfg     config
		only    = flag.String("workload", "all", "workload to run, or all")
		trace   = flag.Int("trace", 0, "1 = in-process traced run reporting per-layer metrics")
		out     = flag.String("out", "", "append each run's full result record to this JSON-lines file")
		compare = flag.Bool("compare", false, "compare two result files (the two arguments) instead of running")
	)
	flag.StringVar(&cfg.root, "root", ".", "checkout to build and measure")
	flag.StringVar(&cfg.build, "build", ".bench_build", "scratch directory for binaries, data and span files")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed: the same seed sends the same requests")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run (open loop, then closed loop)")
	flag.StringVar(&cfg.spans, "spans", "", "span file of a traced run (default <build>/spans-<workload>.jsonl)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf(2, "-compare needs two result files")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	cfg.replay = replayItems
	var ws []*workload
	if *only == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(*only)
		if err != nil {
			fatalf(2, "%v", err)
		}
		ws = []*workload{w}
	}
	var err error
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		fatalf(2, "%v", err)
	}
	if cfg.build, err = filepath.Abs(cfg.build); err != nil {
		fatalf(2, "%v", err)
	}

	ctx := context.Background()
	status := 0
	for _, w := range ws {
		c := cfg
		if c.trace && c.spans == "" {
			c.spans = filepath.Join(c.build, "spans-"+w.name+".jsonl")
		}
		var res *result
		if c.trace {
			res, err = runTraced(ctx, &c, w)
		} else {
			res, err = runProcesses(ctx, &c, w)
		}
		if err != nil {
			fatalf(2, "%s: %v", w.name, err)
		}
		printReport(os.Stdout, res)
		if *out != "" {
			if err := appendRecord(*out, res); err != nil {
				fatalf(2, "%v", err)
			}
		}
		if err := json.NewEncoder(os.Stdout).Encode(summaryLine(res)); err != nil {
			fatalf(2, "%v", err)
		}
		if !res.Correct {
			status = 1
		}
	}
	os.Exit(status)
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "freqload: "+format+"\n", args...)
	os.Exit(code)
}

// summaryLine is the last line of output: correctness, counts, and the
// metrics BENCHMARK.json lists — the end-to-end ones untraced, the
// per-layer ones traced.
func summaryLine(res *result) map[string]any {
	metrics := map[string]any{}
	list := perLayer
	if !res.Trace {
		list = endToEnd
	}
	for _, def := range list {
		if !res.Trace && !def.listed {
			continue
		}
		v := res.Metrics[def.name]
		metrics[def.name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	}
}

// printReport prints every metric with its unit and sample count, and
// every gate.
func printReport(w io.Writer, res *result) {
	mode := "untraced, real processes"
	if res.Trace {
		mode = "traced, in-process"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %gs  %s\n", res.Workload, res.Seed, res.Seconds, mode)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		reading := "null"
		if v.Value != nil {
			reading = fmt.Sprintf("%.6g", *v.Value)
		}
		fmt.Fprintf(w, "  %-32s %14s %-8s n=%d\n", name, reading, v.Unit, v.Samples)
	}
	for _, g := range res.Gates {
		mark := "ok  "
		if !g.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  gate %s %-16s %s\n", mark, g.Name, g.Detail)
	}
	fmt.Fprintf(w, "  correct=%v valid=%v attempted=%d failed=%d\n", res.Correct, res.Valid, res.Attempted, res.Failed)
}

func appendRecord(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a JSON-lines file of result records.
func readRecords(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*result
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, &r)
	}
	return out, nil
}
