package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"streamfreq"
	"streamfreq/internal/cluster"
	"streamfreq/internal/core"
	"streamfreq/internal/obs"
	"streamfreq/internal/persist"
	"streamfreq/internal/router"
	"streamfreq/internal/serve"
	"streamfreq/internal/tenant"
)

// The traced run builds a workload's topology inside this process from
// the constructors the commands call, with the same flag values, and
// records a span around every call that crosses a layer boundary. Spans
// come only from wrappers in this file: around each daemon's Handler,
// in the router's and coordinator's HTTP transports, around the serve
// Target's UpdateBatch and ServingView, around the WAL appends, the
// coordinator's blob decode, and each PullAll round.

// traceShare is the part of the measured time that is traced; the rest
// runs the same open loop untraced, so the difference in client ingest
// latency is the tracing overhead.
const traceShare = 0.7

// ledgerSlack is how much of the traced client ingest time may go
// unattributed to a layer before the run fails: the stages telescope, so
// only requests the span join could not follow leave a residual, and
// such a request is a measurement bug.
const ledgerSlack = 0.01

// inprocNode is one freqd built in-process.
type inprocNode struct {
	name    string
	url     string
	durable persist.Target
	target  serve.Target
	store   *persist.Store
	table   *tenant.Table
	recover time.Duration
	stats   persist.RecoveryStats
}

// snapshotStatser is the serving wrappers' snapshot surface.
type snapshotStatser interface{ SnapshotStats() core.SnapshotStats }

// refreshes is the node's serving-snapshot refresh count (0 without one).
func (n *inprocNode) refreshes() int64 {
	if ss, ok := n.target.(snapshotStatser); ok {
		return ss.SnapshotStats().Refreshes
	}
	return 0
}

// inprocTier is one in-process topology.
type inprocTier struct {
	rec     *recorder
	nodes   []*inprocNode
	router  *router.Router
	coord   *cluster.Coordinator
	routerU string
	mergeU  string
	servers []*http.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu        sync.Mutex
	stagedMax int64 // largest pipelined backlog seen by the sampler
}

func newObs(service string) *obs.Obs {
	// The daemons' default logging (text at Info, one line per write),
	// discarded: the formatting cost stays, the output does not.
	o, err := obs.New(obs.Options{Service: service, LogFormat: "text", LogWriter: io.Discard})
	if err != nil {
		panic(err) // static options
	}
	return o
}

// label is the algorithm name freqd stamps on checkpoints.
func label(w *workload) string { return streamfreq.MustNew(w.node.algo, phi, 1).Name() }

// buildDurable constructs a node's summary arrangement and recovers it
// from dir, as freqd's buildTarget does.
func buildDurable(w *workload, dir string) (*inprocNode, error) {
	n := &inprocNode{}
	factory := func() core.Summary { return streamfreq.MustNew(w.node.algo, phi, 1) }
	switch {
	case w.node.tenants:
		t, err := tenant.NewTable(tenant.Options{DefaultPhi: phi, MaxResident: tenantResident})
		if err != nil {
			return nil, err
		}
		n.durable, n.table = t, t
	case w.node.pipeline:
		n.durable = core.NewPipelined(pipelineShards, factory)
	default:
		n.durable = core.NewConcurrent(factory())
	}
	store, err := persist.Open(persist.Options{
		Dir:           dir,
		Algo:          label(w),
		Fsync:         persist.FsyncInterval,
		FsyncInterval: 100 * time.Millisecond,
		Decode:        streamfreq.Decode,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if n.stats, err = store.Recover(n.durable); err != nil {
		return nil, fmt.Errorf("recovering %s: %w", dir, err)
	}
	n.recover = time.Since(start)
	n.store = store
	return n, nil
}

// close stops the node's plane and seals its log without a checkpoint,
// so the next build recovers everything from the WAL.
func (n *inprocNode) close() error {
	if p, ok := n.durable.(*core.Pipelined); ok {
		p.Close()
	}
	return n.store.Close()
}

// serveLoopback serves h on a free loopback port until the tier stops.
func (t *inprocTier) serveLoopback(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		_ = srv.Serve(l) // returns ErrServerClosed at shutdown
	}()
	return "http://" + l.Addr().String(), nil
}

// buildInproc builds w's topology with node data under dataRoot.
func buildInproc(w *workload, dataRoot string, rec *recorder) (*inprocTier, error) {
	t := &inprocTier{rec: rec}
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	ok := false
	defer func() {
		if !ok {
			t.stop()
		}
	}()
	for i := 0; i < w.nodes; i++ {
		name := fmt.Sprintf("freqd-%c", 'a'+i)
		n, err := buildDurable(w, filepath.Join(dataRoot, name))
		if err != nil {
			return nil, err
		}
		n.name = name
		t.nodes = append(t.nodes, n)
		n.durable.PersistTo(&tracedPersister{store: n.store, rec: rec, node: name})
		switch d := n.durable.(type) {
		case *tenant.Table:
			n.target = d // serve reaches the table directly; its appends are traced
		case *core.Pipelined:
			n.target = &tracedPipelined{Pipelined: d.ServeSnapshots(staleness), rec: rec, node: name}
		case *core.Concurrent:
			n.target = &tracedConcurrent{Concurrent: d.ServeSnapshots(staleness), rec: rec, node: name}
		}
		srv := serve.NewServer(serve.Options{Target: n.target, Algo: label(w), Store: n.store, Tenants: n.table, Obs: newObs("freqd")})
		url, err := t.serveLoopback(traceHandler(rec, "serve.http", name, srv.Handler()))
		if err != nil {
			return nil, err
		}
		n.url = url
	}
	names := map[string]string{} // host:port → node name, for forward and pull spans
	for _, n := range t.nodes {
		names[n.url[len("http://"):]] = n.name
	}
	client := func(kind, node string) *http.Client {
		return &http.Client{Transport: &tracedTransport{base: router.NewHTTPClient(0).Transport, rec: rec, kind: kind, node: node, peers: names}}
	}
	if w.router {
		var shards []router.ShardConfig
		for i, n := range t.nodes {
			shards = append(shards, router.ShardConfig{ID: string(rune('a' + i)), Replicas: []string{n.url}})
		}
		rt, err := router.New(router.Options{Shards: shards, Client: client("router.forward", "freqrouter"), Obs: newObs("freqrouter")})
		if err != nil {
			return nil, err
		}
		t.router = rt
		if t.routerU, err = t.serveLoopback(traceHandler(rec, "router.http", "freqrouter", rt.Handler())); err != nil {
			return nil, err
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			rt.Run(ctx, time.Second) // freqrouter's default -probe
		}()
	}
	if w.merge != mergeNone {
		opts := cluster.Options{
			Interval:     mergeInterval,
			MergeEncoded: tracedMerge(rec),
			Client:       client("cluster.pull", "freqmerge"),
			Obs:          newObs("freqmerge"),
		}
		if w.merge == mergeRouter {
			m, err := router.FetchShardMap(ctx, nil, t.routerU)
			if err != nil {
				return nil, err
			}
			opts.ShardMap = m
		} else {
			for _, n := range t.nodes {
				opts.Nodes = append(opts.Nodes, n.url)
			}
		}
		coord, err := cluster.New(opts)
		if err != nil {
			return nil, err
		}
		t.coord = coord
		if t.mergeU, err = t.serveLoopback(traceHandler(rec, "cluster.http", "freqmerge", coord.Handler())); err != nil {
			return nil, err
		}
		coord.PullAll(ctx) // the first round, which cluster.Run also does at once
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.pullLoop(ctx)
		}()
	}
	if w.node.pipeline {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.sampleStaged(ctx)
		}()
	}
	ok = true
	return t, nil
}

// pullLoop drives the coordinator on freqmerge's -interval cadence, one
// span per round.
func (t *inprocTier) pullLoop(ctx context.Context) {
	tick := time.NewTicker(mergeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if !t.rec.tracing() {
			t.coord.PullAll(ctx)
			continue
		}
		tid := t.rec.newTraceID()
		start := t.rec.now()
		t.coord.PullAll(obs.WithTrace(ctx, tid))
		t.rec.add(span{Kind: "cluster.round", Node: "freqmerge", Trace: tid, Start: start, End: t.rec.now()})
	}
}

// sampleStaged records the largest acknowledged-but-unapplied backlog of
// the pipelined planes while tracing.
func (t *inprocTier) sampleStaged(ctx context.Context) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if !t.rec.tracing() {
			continue
		}
		for _, n := range t.nodes {
			st := n.durable.(*core.Pipelined).PipelineStats()
			t.mu.Lock()
			t.stagedMax = max(t.stagedMax, st.ClaimedN-st.AppliedN)
			t.mu.Unlock()
		}
	}
}

func (t *inprocTier) ingestBases() []string {
	if t.router != nil {
		return []string{t.routerU}
	}
	var out []string
	for _, n := range t.nodes {
		out = append(out, n.url)
	}
	return out
}

func (t *inprocTier) queryBase() string {
	if t.coord != nil {
		return t.mergeU
	}
	return t.nodes[0].url
}

// stop shuts every server and background loop down and closes the
// nodes' logs.
func (t *inprocTier) stop() {
	t.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range t.servers {
		_ = srv.Shutdown(ctx) // in-flight requests are done by now
	}
	t.wg.Wait()
	for _, n := range t.nodes {
		if err := n.close(); err != nil {
			fmt.Fprintf(os.Stderr, "freqload: closing %s: %v\n", n.name, err)
		}
	}
}

// preloadInproc writes w.preload bodies into each node's WAL through the
// node's own ingest path and seals the logs, leaving the same on-disk
// state as the process run's preload-then-SIGKILL.
func preloadInproc(w *workload, in *inputs, dataRoot string) ([]sample, error) {
	var out []sample
	for i := 0; i < w.nodes; i++ {
		n, err := buildDurable(w, filepath.Join(dataRoot, fmt.Sprintf("freqd-%c", 'a'+i)))
		if err != nil {
			return nil, err
		}
		n.durable.PersistTo(n.store)
		reqs := make([]request, w.preload)
		for j := range reqs {
			reqs[j] = request{route: "ingest", path: "/v1/ingest", body: (j*w.nodes + i) % len(in.bodies)}
			items := in.bodies[reqs[j].body].items
			for len(items) > 0 { // in freqd's ingest batches, so the WAL records match
				k := min(len(items), core.DefaultBatchSize)
				n.durable.UpdateBatch(items[:k])
				items = items[k:]
			}
			now := time.Now()
			out = append(out, sample{req: &reqs[j], phase: phaseWarm, due: now, sent: now, done: now, status: http.StatusOK, n: -1})
		}
		if err := n.close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tierCounters are the cumulative counters the per-layer metrics take
// differences of across the traced phase.
type tierCounters struct {
	retries    int64
	walBytes   int64
	refreshes  int64
	evictions  int64
	reloads    int64
	measuredAt time.Time
}

func (t *inprocTier) counters() tierCounters {
	c := tierCounters{measuredAt: time.Now()}
	if t.router != nil {
		c.retries = t.router.Counters().Get("router.retries")
	}
	for _, n := range t.nodes {
		c.walBytes += n.store.Stats().AppendedBytes
		c.refreshes += n.refreshes()
		if n.table != nil {
			st := n.table.TableStats()
			c.evictions += st.Evictions
			c.reloads += st.Reloads
		}
	}
	return c
}

// runTraced runs one workload on the in-process topology: a warm-up, the
// open loop untraced, then the open loop traced; it checks the answers
// like an untraced run and derives the per-layer metrics from the spans.
func runTraced(ctx context.Context, cfg *config, w *workload) (*result, error) {
	in, err := w.gen(cfg.seed)
	if err != nil {
		return nil, err
	}
	dataRoot := filepath.Join(cfg.build, "run", w.name+"-traced")
	if err := os.RemoveAll(dataRoot); err != nil {
		return nil, err
	}
	var pre []sample
	if w.preload > 0 {
		if pre, err = preloadInproc(w, in, dataRoot); err != nil {
			return nil, err
		}
	}
	rec := newRecorder()
	t, err := buildInproc(w, dataRoot, rec)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			t.stop()
		}
	}()

	lanes := newLanes(in, t.ingestBases(), t.queryBase())
	all, err := warmUp(lanes, w, in)
	if err != nil {
		closeIdle(lanes)
		return nil, err
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	traced := time.Duration(traceShare * float64(total))
	all = append(all, openLoop(lanes, w, in, total-traced, phaseOpen)...)
	before := t.counters()
	for _, l := range lanes {
		l.rec = rec
	}
	rec.on.Store(true)
	all = append(all, openLoop(lanes, w, in, traced, phaseOpen)...)
	rec.on.Store(false)
	after := t.counters()
	closeIdle(lanes)

	gates, _, err := verify(ctx, w, in, tallyAcks(append(all, pre...)), t.queryBase(), t.coord != nil)
	if err != nil {
		return nil, err
	}
	t.stop()
	stopped = true

	m := metricSet{}
	x := newSpanIndex(rec.snapshot())
	layerMetrics(m, w, t, x, all, after.measuredAt.Sub(before.measuredAt).Seconds(), before, after)
	stageSum, residual := *m["ledger.stage_sum_ms"].Value, *m["ledger.residual_ms"].Value
	gates = append(gates, newGate("ledger", math.Abs(residual) <= ledgerSlack*stageSum,
		"stages sum to %.4f ms, residual %.2g ms (slack %g of the sum)", stageSum, residual, ledgerSlack))
	decodeCost(in, m)
	var tenantMS []float64
	if w.node.tenants {
		if tenantMS, err = tenantIngestCost(in, filepath.Join(dataRoot, "tenant-replay")); err != nil {
			return nil, err
		}
	}
	m.set("tenant.ingest_p50_ms", percentileOrMax(tenantMS, 0.5), len(tenantMS))
	if err := replaySummaries(cfg.seed, cfg.replay, m); err != nil {
		return nil, err
	}
	res := newResult(cfg, w, append(all, pre...), gates)
	res.Metrics = m
	if err := writeSpans(cfg.spans, x.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// layerMetrics derives the span-based per-layer metrics of the traced
// phase, secs long. A layer the workload does not run reports 0.
func layerMetrics(m metricSet, w *workload, t *inprocTier, x *spanIndex, all []sample, secs float64, before, after tierCounters) {
	var late []float64
	attempted, failed := 0, 0
	var tracedMean, untracedMean []float64
	for i := range all {
		s := &all[i]
		if s.phase != phaseOpen {
			continue
		}
		late = append(late, ms(s.late))
		if s.trace == "" {
			if s.req.body >= 0 {
				untracedMean = append(untracedMean, ms(s.done.Sub(s.sent)))
			}
			continue
		}
		attempted++
		if !s.ok() {
			failed++
		}
		if s.req.body >= 0 {
			tracedMean = append(tracedMean, ms(s.done.Sub(s.sent)))
		}
	}
	m.set("loadgen.late_p99_ms", percentileOrMax(late, 0.99), len(late))
	m.set("loadgen.attempted", float64(attempted), attempted)
	m.set("loadgen.failed", float64(failed), attempted)

	// The ingest ledger: router, serve, core and persist self times.
	l := joinIngest(x, w.router, !w.node.tenants)
	m.set("router.self_p50_ms", percentileOrMax(l.routerOwn, 0.5), len(l.routerOwn))
	m.set("serve.ingest_self_p50_ms", percentileOrMax(l.serveOwn, 0.5), len(l.serveOwn))
	m.set("core.apply_self_p50_ms", percentileOrMax(l.applyOwn, 0.5), len(l.applyOwn))
	stageSum := l.stageSum()
	m.set("ledger.stage_sum_ms", stageSum, l.joined)
	m.set("ledger.residual_ms", mean(tracedMean)-stageSum, len(tracedMean))
	overhead := 0.0
	if u := mean(untracedMean); u > 0 {
		overhead = 100 * (mean(tracedMean) - u) / u
	}
	m.set("ledger.trace_overhead_pct", overhead, len(untracedMean))

	forwards := x.all("router.forward", "ingest")
	routed := x.all("router.http", "ingest")
	m.set("router.forward_p50_ms", percentileOrMax(durationsMS(forwards), 0.5), len(forwards))
	m.set("router.forward_p99_ms", percentileOrMax(durationsMS(forwards), 0.99), len(forwards))
	perReq, fwdBytes := 0.0, 0.0
	perPeer := map[string]float64{}
	for _, f := range forwards {
		fwdBytes += float64(f.Bytes)
		perPeer[f.Peer] += float64(f.Bytes)
	}
	if len(routed) > 0 {
		perReq = float64(len(forwards)) / float64(len(routed))
	}
	m.set("router.forwards_per_req", perReq, len(routed))
	m.set("router.forward_mb_per_s", fwdBytes/1e6/secs, len(forwards))
	skew := 0.0
	if len(perPeer) > 0 {
		var top, sum float64
		for _, b := range perPeer {
			top, sum = max(top, b), sum+b
		}
		skew = top / (sum / float64(len(perPeer)))
	}
	m.set("router.shard_skew", skew, len(perPeer))
	m.set("router.retries", float64(after.retries-before.retries), 1)

	var nodeIngest, nodeQuery, nodeSummary []*span
	var queryOwn []float64
	refused := 0
	for _, h := range x.all("serve.http", "") {
		switch h.Route {
		case "ingest":
			nodeIngest = append(nodeIngest, h)
		case "summary":
			nodeSummary = append(nodeSummary, h)
		case "topk", "estimate", "hhh", "range", "quantile":
			nodeQuery = append(nodeQuery, h)
			queryOwn = append(queryOwn, float64(selfTime(spanIvl(h), ivls(x.within("core.view", h.Node, h))))/1e6)
		}
		if h.Status == 429 || h.Status == 503 {
			refused++
		}
	}
	m.set("serve.ingest_p50_ms", percentileOrMax(durationsMS(nodeIngest), 0.5), len(nodeIngest))
	m.set("serve.query_p50_ms", percentileOrMax(durationsMS(nodeQuery), 0.5), len(nodeQuery))
	m.set("serve.query_self_p50_ms", percentileOrMax(queryOwn, 0.5), len(queryOwn))
	m.set("serve.summary_p50_ms", percentileOrMax(durationsMS(nodeSummary), 0.5), len(nodeSummary))
	m.set("serve.refused", float64(refused), len(nodeIngest))

	applies, views := x.all("core.apply", ""), x.all("core.view", "")
	m.set("core.apply_p50_ms", percentileOrMax(durationsMS(applies), 0.5), len(applies))
	m.set("core.apply_p99_ms", percentileOrMax(durationsMS(applies), 0.99), len(applies))
	m.set("core.view_p50_ms", percentileOrMax(durationsMS(views), 0.5), len(views))
	ratio := 0.0
	if len(views) > 0 {
		ratio = float64(after.refreshes-before.refreshes) / float64(len(views))
	}
	m.set("core.view_refresh_ratio", ratio, len(views))
	t.mu.Lock()
	m.set("core.staged_items_max", float64(t.stagedMax), 1)
	t.mu.Unlock()

	appends := x.all("persist.append", "")
	appended := 0
	for _, a := range appends {
		appended += a.Items
	}
	perItem := 0.0
	if appended > 0 {
		perItem = float64(after.walBytes-before.walBytes) / float64(appended)
	}
	m.set("persist.append_p50_ms", percentileOrMax(durationsMS(appends), 0.5), len(appends))
	m.set("persist.append_p99_ms", percentileOrMax(durationsMS(appends), 0.99), len(appends))
	m.set("persist.wal_bytes_per_item", perItem, appended)
	var recoverMax, recoverSum float64
	var replayed int64
	for _, n := range t.nodes {
		recoverMax = max(recoverMax, n.recover.Seconds())
		recoverSum += n.recover.Seconds()
		replayed += n.stats.ReplayedItems
	}
	m.set("persist.recover_s", recoverMax, len(t.nodes))
	m.set("persist.replay_items_per_s", float64(replayed)/recoverSum, int(replayed))

	pulls := x.all("cluster.pull", "summary")
	var pullBytes float64
	for _, p := range pulls {
		pullBytes += float64(p.Resp)
	}
	pullKB := 0.0
	if len(pulls) > 0 {
		pullKB = pullBytes / float64(len(pulls)) / 1024
	}
	m.set("cluster.pull_p50_ms", percentileOrMax(durationsMS(pulls), 0.5), len(pulls))
	m.set("cluster.pull_kb", pullKB, len(pulls))
	decodes := x.all("cluster.decode", "")
	m.set("cluster.decode_p50_ms", percentileOrMax(durationsMS(decodes), 0.5), len(decodes))
	rounds := pullRounds(x)
	m.set("cluster.rebuild_self_p50_ms", percentileOrMax(rounds, 0.5), len(rounds))
	var mergeQueries []*span
	for _, h := range x.all("cluster.http", "") {
		switch h.Route {
		case "topk", "estimate", "hhh", "range", "quantile":
			mergeQueries = append(mergeQueries, h)
		}
	}
	// A coordinator query has no child spans: its whole span is self time.
	m.set("cluster.query_self_p50_ms", percentileOrMax(durationsMS(mergeQueries), 0.5), len(mergeQueries))

	m.set("tenant.evictions_per_s", float64(after.evictions-before.evictions)/secs, int(after.evictions-before.evictions))
	m.set("tenant.reloads_per_s", float64(after.reloads-before.reloads)/secs, int(after.reloads-before.reloads))
}
