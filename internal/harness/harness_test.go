package harness

import (
	"bytes"
	"strings"
	"testing"

	"streamfreq/internal/testutil"
)

// testConfig is a scaled-down configuration that keeps every experiment
// under a second while preserving the qualitative shapes the assertions
// check.
func testConfig() Config {
	return Config{
		N:        60_000,
		Universe: 1 << 14,
		Phi:      0.005,
		Seed:     7,
	}
}

func rowsFor(t *testing.T, res Result, algo string) []Row {
	t.Helper()
	var out []Row
	for _, r := range res.Rows {
		if r.Algo == algo {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no rows for %s in %s", algo, res.Exp)
	}
	return out
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("F99", testConfig()); err == nil {
		t.Error("expected unknown-experiment error")
	}
}

func TestT1CoversRoster(t *testing.T) {
	res, err := Run("T1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Errorf("T1 has %d rows, want 10", len(res.Rows))
	}
}

func TestF1CounterShapes(t *testing.T) {
	res, err := RunF1(testConfig().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	// Counter-based algorithms must have perfect recall everywhere.
	for _, r := range res.Rows {
		if r.Recall < 0.999 {
			t.Errorf("%s at z=%g: recall %.3f < 1 (deterministic guarantee broken)",
				r.Algo, r.X, r.Recall)
		}
	}
	// Accuracy improves with skew: SSH ARE at z=3.0 must be below its ARE
	// at z=0.5, and precision at z≥2 must be high.
	ssh := rowsFor(t, res, "SSH")
	first, last := ssh[0], ssh[len(ssh)-1]
	if last.ARE > first.ARE+1e-9 && first.ARE > 0.01 {
		t.Errorf("SSH ARE did not improve with skew: %.4f (z=%g) -> %.4f (z=%g)",
			first.ARE, first.X, last.ARE, last.X)
	}
	for _, r := range ssh {
		if r.X >= 2.0 && r.Precision < 0.9 {
			t.Errorf("SSH precision %.3f at z=%g; Space-Saving should be near-exact at high skew", r.Precision, r.X)
		}
	}
}

func TestF3SpaceShapes(t *testing.T) {
	res, err := RunF3(testConfig().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	// Counter space must shrink as φ grows (fewer counters needed).
	ssh := rowsFor(t, res, "SSH")
	if len(ssh) >= 2 && ssh[0].Bytes <= ssh[len(ssh)-1].Bytes {
		t.Errorf("SSH bytes did not shrink with φ: %d -> %d", ssh[0].Bytes, ssh[len(ssh)-1].Bytes)
	}
}

func TestF6SketchShapes(t *testing.T) {
	res, err := RunF6(testConfig().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	// CMH (Count-Min based) must have perfect recall (one-sided error).
	for _, r := range rowsFor(t, res, "CMH") {
		if r.Recall < 0.999 {
			t.Errorf("CMH recall %.3f at z=%g; Count-Min hierarchies cannot miss", r.Recall, r.X)
		}
	}
	// CGT must be the largest sketch (65 counters per bucket).
	cgt := rowsFor(t, res, "CGT")
	cmh := rowsFor(t, res, "CMH")
	if cgt[0].Bytes < cmh[0].Bytes {
		t.Errorf("CGT bytes %d below CMH bytes %d; the group-testing overhead is missing",
			cgt[0].Bytes, cmh[0].Bytes)
	}
}

func TestF11DepthAblation(t *testing.T) {
	res, err := RunF11(testConfig().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("depth ablation rows = %d, want 6", len(res.Rows))
	}
	// Throughput must fall with depth (more rows touched per update).
	if res.Rows[0].UpdPerMs < res.Rows[len(res.Rows)-1].UpdPerMs {
		t.Errorf("depth-1 throughput %.0f below depth-8 throughput %.0f",
			res.Rows[0].UpdPerMs, res.Rows[len(res.Rows)-1].UpdPerMs)
	}
}

func TestX1MaxChangeRecoversSurges(t *testing.T) {
	res, err := RunX1(testConfig().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Precision < 0.7 {
			t.Errorf("%s recovered only %.0f%% of top-change items", r.Algo, 100*r.Precision)
		}
	}
}

func TestX2MergePreservesAccuracy(t *testing.T) {
	cfg := testConfig()
	cfg.Algorithms = []string{"SSH", "CM"}
	res, err := RunX2(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	byAlgo := map[string]Row{}
	for _, r := range res.Rows {
		byAlgo[r.Algo] = r
	}
	m, ok1 := byAlgo["SSH-merged"]
	s, ok2 := byAlgo["SSH-single"]
	if !ok1 || !ok2 {
		t.Fatal("missing SSH rows")
	}
	if m.Recall < 0.999 {
		t.Errorf("merged SSH recall %.3f; merging must preserve the deterministic guarantee", m.Recall)
	}
	if m.ARE > s.ARE+0.5 {
		t.Errorf("merged SSH ARE %.4f far above single-summary ARE %.4f", m.ARE, s.ARE)
	}
	// Linear sketches merge losslessly: merged CM must match single CM.
	cm, cs := byAlgo["CM-merged"], byAlgo["CM-single"]
	if cm.Precision != cs.Precision || cm.Recall != cs.Recall {
		t.Errorf("CM merged (%+v) differs from single (%+v); linear merge must be exact", cm, cs)
	}
}

func TestEmitTableAndCSV(t *testing.T) {
	var table, csvBuf bytes.Buffer
	cfg := testConfig()
	cfg.Out = &table
	cfg.CSVOut = &csvBuf
	cfg.Algorithms = []string{"SSH"}
	if _, err := Run("T1", cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "SSH") {
		t.Error("table output missing algorithm row")
	}
	if !strings.Contains(csvBuf.String(), "T1,SSH") {
		t.Errorf("csv output malformed: %q", csvBuf.String())
	}
}

func TestScalePhisDropsTinyThresholds(t *testing.T) {
	c := Config{N: 10000}.withDefaults()
	for _, phi := range c.scalePhis() {
		if phi*float64(c.N) < 5 {
			t.Errorf("phi %g kept despite threshold < 5", phi)
		}
	}
	// Paper scale keeps everything.
	d := Defaults().withDefaults()
	if len(d.scalePhis()) != len(DefaultPhis) {
		t.Error("paper-scale config dropped phi values")
	}
}

func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow; skipped with -short")
	}
	cfg := testConfig()
	cfg.N = 20_000
	cfg.Universe = 1 << 12
	results, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ExperimentOrder) {
		t.Errorf("ran %d experiments, want %d", len(results), len(ExperimentOrder))
	}
	for _, res := range results {
		if len(res.Rows) == 0 {
			t.Errorf("%s produced no rows", res.Exp)
		}
	}
	checkAccuracyGolden(t, results)
}

// accuracyRow is one row's deterministic columns: the paper's accuracy
// measures and the summary's size. Throughput and query time are
// timings and stay out.
type accuracyRow struct {
	Exp, Algo, XLabel string
	X                 float64
	Precision, Recall float64
	ARE               float64
	Bytes             int
}

// checkAccuracyGolden diffs every accuracy experiment's rows (all but
// F2 and F7, which measure throughput) exactly against the golden, so
// an accuracy change fails tier-1 the way a crash does.
func checkAccuracyGolden(t *testing.T, results []Result) {
	t.Helper()
	var got []accuracyRow
	for _, res := range results {
		if res.Exp == "F2" || res.Exp == "F7" {
			continue
		}
		for _, r := range res.Rows {
			got = append(got, accuracyRow{r.Exp, r.Algo, r.XLabel, r.X, r.Precision, r.Recall, r.ARE, r.Bytes})
		}
	}
	testutil.CheckGolden(t, "testdata/accuracy_golden.json", got)
}
