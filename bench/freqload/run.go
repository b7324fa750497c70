package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// Phase lengths. The open loop gets most of the measured time because
// its latency percentiles need the samples; the closed loop only has to
// settle a throughput.
const (
	warmup    = time.Second
	openShare = 0.6
	setups    = 5 // tier launches per run; setup_s is their median
)

// config is one invocation's settings.
type config struct {
	root    string // checkout under test
	build   string // scratch directory: binaries, data dirs, span files
	seed    uint64
	seconds float64
	trace   bool
	spans   string // span file of the traced run
	replay  int    // items of the seed stream the traced run replays per algorithm
}

func (c *config) phases() (open, closed time.Duration) {
	total := time.Duration(c.seconds * float64(time.Second))
	open = time.Duration(openShare * float64(total))
	return open, total - open
}

// result is one workload run.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Valid     bool             `json:"valid"` // the generator kept to its schedule
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Setups    []float64        `json:"setups,omitempty"` // seconds of each launch's set-up
	Gates     []gate           `json:"gates"`
	Metrics   map[string]value `json:"metrics"`
}

// value is one metric reading. Value is null when the run has no such
// traffic or too few samples for the percentile.
type value struct {
	Value   *float64 `json:"value"`
	Unit    string   `json:"unit"`
	Samples int      `json:"samples"`
}

type metricSet map[string]value

func (m metricSet) set(name string, v float64, samples int) {
	def := findMetric(name)
	if def == nil {
		panic("freqload: metric " + name + " is not in the catalogue")
	}
	val := value{Unit: def.unit, Samples: samples}
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		val.Value = &v
	}
	m[name] = val
}

// setPct sets a percentile, null unless minBeyond samples support it.
func (m metricSet) setPct(name string, vals []float64, p float64) {
	v, ok := percentile(vals, p)
	if !ok {
		v = math.NaN()
	}
	m.set(name, v, len(vals))
}

// maxLate is the validity bound on the generator's own lateness.
const maxLate = time.Millisecond

// runProcesses runs one workload against the real daemons.
//
// The tier is launched several times and each launch but the last is
// SIGKILLed as soon as it is ready. That leaves the data directory as the
// launch found it (a preloaded WAL gains only an empty segment), so every
// launch does the same set-up work; setup_s is their median. The last
// launch is driven, checked and SIGTERMed.
func runProcesses(ctx context.Context, cfg *config, w *workload) (*result, error) {
	in, err := w.gen(cfg.seed)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(cfg.build, "bin")
	if err := buildDaemons(cfg.root, bin); err != nil {
		return nil, err
	}
	dataRoot := filepath.Join(cfg.build, "run", w.name)
	if err := os.RemoveAll(dataRoot); err != nil {
		return nil, err
	}
	var pre []sample
	if w.preload > 0 {
		if pre, err = preload(w, in, bin, dataRoot); err != nil {
			return nil, err
		}
	}

	var setupSecs []float64
	var t *procTier
	for k := 0; k < setups; k++ {
		if k > 0 {
			t.stop(syscall.SIGKILL)
		}
		if w.preload == 0 {
			if err := os.RemoveAll(dataRoot); err != nil {
				return nil, err
			}
		}
		var setup time.Duration
		if t, setup, err = launchTier(w, bin, dataRoot); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, setup.Seconds())
	}
	samples, rssMB, err := drive(cfg, w, in, t)
	var gates []gate
	var acc accuracy
	if err == nil {
		samples = append(samples, pre...)
		gates, acc, err = verify(ctx, w, in, tallyAcks(samples), t.queryBase(), t.merge != nil)
	}
	if err != nil {
		err = fmt.Errorf("%w\n%s", err, t.logs())
		t.stop(syscall.SIGKILL)
		return nil, err
	}
	t.stop(syscall.SIGTERM)

	res := newResult(cfg, w, samples, gates)
	res.Setups = setupSecs
	m := endToEndMetrics(in, samples, acc)
	m.set("setup_s", median(setupSecs), len(setupSecs))
	m.set("peak_rss_mb", rssMB, len(t.all()))
	res.Metrics = m
	return res, nil
}

// drive sends the warm-up, open-loop and closed-loop load against the
// tier and returns every sample, and the tier's peak resident set after
// the open loop: up to there the work is fixed by the rates, while the
// closed loops ingest as much as the machine's speed allows, and on
// tenant-churn memory grows with every namespace they reach.
func drive(cfg *config, w *workload, in *inputs, t *procTier) ([]sample, float64, error) {
	lanes := newLanes(in, t.ingestBases(), t.queryBase())
	defer closeIdle(lanes)
	all, err := warmUp(lanes, w, in)
	if err != nil {
		return nil, 0, err
	}
	open, closed := cfg.phases()
	all = append(all, openLoop(lanes, w, in, open, phaseOpen)...)
	rssMB, err := t.peakRSSMB()
	if err != nil {
		return nil, 0, err
	}
	// Closed loop: each class alone on both connections in turn, so
	// neither throughput depends on how the CPUs split between them.
	for _, l := range lanes {
		pair := l.pair()
		closeIdle(lanes)
		all = append(all, runClosed(pair, in, time.Now().Add(closed/2), phaseClosed)...)
		closeIdle(pair)
	}
	return all, rssMB, nil
}

func newLanes(in *inputs, ingest []string, query string) []*lane {
	return []*lane{newLane(ingest, in.ingest), newLane([]string{query}, in.query)}
}

// warmUp sends the set-up requests and a second of the open-loop load,
// so connections, caches and heaps are settled before timing.
func warmUp(lanes []*lane, w *workload, in *inputs) ([]sample, error) {
	all := sendAll(lanes[laneIngest], in, in.warm, phaseWarm)
	all = append(all, openLoop(lanes, w, in, warmup, phaseWarm)...)
	for i := range all {
		if !all[i].ok() {
			return nil, fmt.Errorf("warm-up %s %s: status %d", all[i].req.route, all[i].req.path, all[i].status)
		}
	}
	return all, nil
}

func openLoop(lanes []*lane, w *workload, in *inputs, dur time.Duration, ph phase) []sample {
	return runOpen(lanes, in, schedule([]float64{w.ingestRate, w.queryRate}, dur), time.Now(), ph)
}

// preload fills each node's WAL with w.preload bodies, waits until the
// log is on disk, and SIGKILLs the nodes, so every launch recovers it.
func preload(w *workload, in *inputs, bin, dataRoot string) ([]sample, error) {
	t := &procTier{}
	defer t.stop(syscall.SIGKILL)
	for i := 0; i < w.nodes; i++ {
		name := fmt.Sprintf("freqd-%c", 'a'+i)
		d, err := startDaemon(filepath.Join(bin, "freqd"), dataRoot, name,
			append(w.node.flags(), "-data-dir", filepath.Join(dataRoot, name))...)
		if err != nil {
			return nil, err
		}
		t.nodes = append(t.nodes, d)
	}
	if err := waitAll(t.nodes, waitHealthy); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, t.logs())
	}
	parts := make([][]sample, len(t.nodes))
	done := make(chan struct{}, len(t.nodes))
	for i, d := range t.nodes {
		reqs := make([]request, w.preload)
		for j := range reqs {
			reqs[j] = request{route: "ingest", path: "/v1/ingest", body: (j*len(t.nodes) + i) % len(in.bodies)}
		}
		go func(i int, l *lane) {
			parts[i] = sendAll(l, in, reqs, phaseWarm)
			l.tr.CloseIdleConnections()
			done <- struct{}{}
		}(i, newLane([]string{d.url}, nil))
	}
	for range t.nodes {
		<-done
	}
	all := concat(parts)
	for i := range all {
		if !all[i].ok() {
			return nil, fmt.Errorf("preload: status %d\n%s", all[i].status, t.logs())
		}
	}
	err := waitAll(t.nodes, func(d *daemon) error {
		return poll(d, "durable WAL", func() bool {
			var st struct {
				WAL struct {
					End     int64 `json:"end_n"`
					Durable int64 `json:"durable_n"`
				} `json:"wal"`
			}
			err := getJSON(context.Background(), pollClient, d.url+"/v1/stats", &st)
			return err == nil && st.WAL.Durable == st.WAL.End
		})
	})
	return all, err
}

func newResult(cfg *config, w *workload, samples []sample, gates []gate) *result {
	res := &result{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	var late []float64
	failedEarly := 0
	for i := range samples {
		s := &samples[i]
		if s.sched {
			late = append(late, ms(s.late)) // every scheduled send, warm-up included
		}
		if s.phase == phaseWarm {
			if !s.ok() {
				failedEarly++
			}
			continue
		}
		res.Attempted++
		if !s.ok() {
			res.Failed++
		}
	}
	gates = append(gates, newGate("no-errors", res.Failed == 0 && failedEarly == 0,
		"%d of %d measured requests failed, %d before timing", res.Failed, res.Attempted, failedEarly))
	res.Correct = true
	for _, g := range gates {
		res.Correct = res.Correct && g.OK
	}
	lateP99 := 0.0 // a validity check, not a reported percentile: nearest rank however few sends
	if len(late) > 0 {
		lateP99 = sortedCopy(late)[rank(len(late), 0.99)]
	}
	res.Valid = lateP99 <= ms(maxLate)
	res.Gates = append(gates, newGate("schedule", res.Valid,
		"generator lateness p99 %.3f ms over %d sends (a run over %v is invalid, not incorrect)", lateP99, len(late), maxLate))
	return res
}

// endToEndMetrics derives every latency, throughput, freshness and
// accuracy metric from the driven launch's samples. Set-up and memory
// are set by the caller.
func endToEndMetrics(in *inputs, samples []sample, acc accuracy) metricSet {
	m := metricSet{}
	var ingestLat, queryLat, topkLat, hhhLat []float64
	var answers []answer
	var ingestSpan, querySpan interval
	var closedItems, closedQueries float64
	attempted, failed := 0, 0
	for i := range samples {
		s := &samples[i]
		if s.phase == phaseWarm {
			continue
		}
		attempted++
		lat := ms(s.latency())
		if !s.ok() {
			failed++
			lat = math.Inf(1) // a failed request misses every latency limit
		}
		switch {
		case s.phase == phaseOpen && s.req.body >= 0:
			ingestLat = append(ingestLat, lat)
		case s.phase == phaseOpen:
			queryLat = append(queryLat, lat)
			switch s.req.route {
			case "topk":
				topkLat = append(topkLat, lat)
			case "hhh":
				hhhLat = append(hhhLat, lat)
			}
			if s.n >= 0 {
				answers = append(answers, answer{key: s.req.key, at: s.done, n: s.n})
			}
		case s.req.body >= 0:
			ingestSpan.extend(s.sent, s.done)
			if s.ok() {
				closedItems += float64(len(in.bodies[s.req.body].items))
			}
		default:
			querySpan.extend(s.sent, s.done)
			if s.ok() {
				closedQueries++
			}
		}
	}
	lags := freshLags(ackLog(in, samples), answers)
	m.set("ingest_items_per_s", closedItems/ingestSpan.seconds(), int(closedItems))
	m.set("query_per_s", closedQueries/querySpan.seconds(), int(closedQueries))
	m.setPct("ingest_p50_ms", ingestLat, 0.5)
	m.setPct("ingest_p90_ms", ingestLat, 0.9)
	m.setPct("ingest_p99_ms", ingestLat, 0.99)
	m.setPct("query_p50_ms", queryLat, 0.5)
	m.setPct("query_p90_ms", queryLat, 0.9)
	m.setPct("query_p99_ms", queryLat, 0.99)
	m.setPct("topk_p50_ms", topkLat, 0.5)
	m.setPct("hhh_p50_ms", hhhLat, 0.5)
	m.setPct("fresh_lag_p50_ms", lags, 0.5)
	m.set("error_rate", float64(failed)/float64(attempted), attempted)
	m.set("recall", acc.recall(), acc.truth)
	m.set("precision", acc.precision(), acc.reported)
	m.set("are", acc.are(), acc.truth)
	return m
}

// interval is the time span a set of requests covered.
type interval struct{ start, end time.Time }

func (iv *interval) extend(start, end time.Time) {
	if iv.start.IsZero() || start.Before(iv.start) {
		iv.start = start
	}
	if end.After(iv.end) {
		iv.end = end
	}
}

func (iv *interval) seconds() float64 { return iv.end.Sub(iv.start).Seconds() }

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	_, m, _ := quartiles(vals)
	return m
}
