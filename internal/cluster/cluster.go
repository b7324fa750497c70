// Package cluster turns N freqd nodes into one logical summary: a
// coordinator periodically pulls each node's GET /summary blob, decodes
// it through the registry, and serves the combined state over the same
// query API as a single node — the paper's X2 merge experiment as a
// network service. Counter and sketch summaries are mergeable with
// their guarantees intact, so the coordinator answers frequent-items
// queries over the union of the node streams with the per-node
// provisioning (same φ, same seed) and no raw-stream shipping.
//
// One model covers every topology. A pull yields a map from namespace
// to decoded summary: a plain node ships one summary, stored as the
// default namespace ""; a tenant-mode node ships every namespace in one
// bundle (serve.TenantBundleContentType). Each rebuild groups the
// contributions by (namespace, shard) — the write tier's ring shard
// when a shard map is configured, otherwise each node is its own shard
// — picks the freshest replica of each group (the highest stream
// position among contributions inside the freshness SLO), and combines
// a namespace's picks by disjoint union when a ring partitions the
// stream (PartitionedView) or by merge when nodes saw independent
// streams. The default namespace serves the un-namespaced routes and
// GET /summary; every namespace answers under /v1/t/{ns}/....
//
// The protocol is pull-based and stateless on the nodes: every pull
// ships a node's full cumulative state, and the coordinator replaces
// that node's contribution wholesale — never adds to it — so re-pulls,
// retries, and node restarts (a durable node replays its WAL and comes
// back cumulative) cannot double-count. The node's process epoch
// (X-Freq-Epoch) makes restarts observable: a changed epoch increments
// the node's restart counter in /stats, and a restart that lost state
// (no WAL) simply ships a smaller summary, which replacement handles the
// same way.
//
// Failure model: a node that cannot be reached, or ships a blob that
// does not decode, keeps its last good summaries in the view — served
// stale, with the staleness and the error surfaced per node in /stats —
// unless Options.MaxStale bounds the staleness, in which case the node's
// contribution is dropped from every namespace (reflected in /stats and
// the merged N) until a pull succeeds again: partial-but-fresh for
// consumers that prefer it over complete-but-stale. A node running a
// different algorithm is rejected with a clear error and contributes
// nothing (merging incompatible summaries would either fail or, worse,
// silently mix estimators).
//
// Windowed nodes (freqd -window) merge like any other: their WN01 blobs
// decode to window.Windowed, whose Merge unions the nodes' recent
// windows block-by-block aligned by recency, so a coordinator over
// windowed nodes serves cluster-wide *recent* heavy hitters. Geometry
// mismatches (different W, B, or k) are per-merge errors like any
// parameter mismatch.
package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/obs"
	"streamfreq/internal/router"
	"streamfreq/internal/serve"
	"streamfreq/internal/tenant"
)

// maxSummaryBytes bounds one node's /summary body: summaries are
// O(counters), so even generous provisioning is megabytes — a longer
// body is a broken or hostile node, not data.
const maxSummaryBytes = 256 << 20

// Options configures a Coordinator.
type Options struct {
	// Nodes lists the base URLs of the freqd nodes to aggregate
	// (required, e.g. "http://10.0.0.1:8080"). A trailing slash is
	// tolerated.
	Nodes []string
	// Interval is the pull cadence of Run (default 1s).
	Interval time.Duration
	// Timeout bounds one node pull (default 5s).
	Timeout time.Duration
	// Algo, when set, is the algorithm label every node must serve
	// (compared against the decoded summary's Name). Empty adopts the
	// first successfully decoded summary's algorithm.
	Algo string
	// MaxStale, when positive, is the freshness SLO: a node whose last
	// good pull is older than this stops contributing to the merged view
	// (dropped, not served stale), for consumers that prefer partial-
	// but-fresh over complete-but-stale. The drop is surfaced per node
	// in Stats and reflected in the merged N; the node's state is kept,
	// so it rejoins the merge the moment a pull succeeds again. The
	// bound is evaluated at each rebuild (every Interval tick and every
	// /refresh), so a contribution can overshoot it by at most one
	// Interval before it leaves the serving view — size MaxStale with
	// that slack in mind. 0 (the default) serves stale contributions
	// indefinitely.
	MaxStale time.Duration
	// MergeEncoded decodes and merges registry blobs (required —
	// streamfreq.MergeEncoded; injected so this package, like
	// internal/persist, stays decoupled from the registry). The
	// coordinator calls it with one blob per pull — the decode side —
	// and folds the decoded summaries itself via Snapshotter/Merger, so
	// nothing is decoded twice.
	MergeEncoded func(blobs ...[]byte) (core.Summary, error)
	// ShardMap, when set, takes the topology from the write tier's
	// published shard map (router.FetchShardMap) instead of Nodes: every
	// replica of every shard is pulled and grouped by its ring shard, so
	// the serving view holds exactly one replica per shard (the highest
	// acknowledged position), routed by the map's hash ring. Replicas of
	// a shard saw the same substream, so merging or summing them would
	// double-count; and the shards are disjoint partitions, so the view
	// answers with per-partition error bounds instead of merge-inflated
	// ones (see PartitionedView).
	ShardMap *router.ShardMap
	// Epoch identifies this coordinator process on its own GET /summary
	// (coordinators stack); 0 draws one from the clock.
	Epoch uint64
	// Client is the HTTP client for pulls (default:
	// router.NewHTTPClient(Timeout), the shared intra-cluster transport
	// config; Timeout is applied per request either way).
	Client *http.Client
	// Obs is the observability plane: metric registry, structured
	// logger, slow-query threshold. Defaults to obs.Discard
	// ("freqmerge") — metrics still accumulate, logs go nowhere.
	Obs *obs.Obs
}

// nodeState is the coordinator's view of one freqd node. All fields are
// guarded by Coordinator.mu; sums is replaced wholesale on every
// successful pull and its summaries are never mutated afterwards (Merge
// reads its operand without modifying it), so a rebuild can combine
// references to them outside the lock.
type nodeState struct {
	url   string
	shard int // ring shard index with a shard map; the node's own index without one

	sums     map[string]core.Summary // last good pull, namespace → decoded summary; nil until then
	n        int64                   // its stream position, summed over namespaces
	epoch    uint64                  // node process epoch of the last good pull
	algo     string                  // its algorithm name
	lastPull time.Time

	pulls    int64
	failures int64
	restarts int64
	lastErr  string // error of the most recent attempt; "" on success
	dropped  bool   // excluded from the last rebuild by the -max-stale bound
	picked   bool   // serving its shard of at least one namespace in the last rebuild
}

// mergedView is one immutable published epoch of the cluster-wide
// serving state: one view per namespace — a merged summary, or a
// PartitionedView when a ring partitions the stream. Without a ring, a
// namespace no node contributes to is absent; with one, it stays as a
// view whose shards are all missing. An absent default namespace ""
// serves the empty stream, exactly like before the first pull.
type mergedView struct {
	views   map[string]core.ReadView
	builtAt time.Time
	fresh   int // nodes serving a shard whose latest pull succeeded
	have    int // nodes serving a shard (fresh or stale)
	dropped int // nodes with data excluded by the -max-stale bound
	missing int // ring shards with no usable contribution
}

// Coordinator pulls, merges, and serves; see the package comment.
type Coordinator struct {
	nodes    []*nodeState
	ring     *router.Ring // non-nil with a shard map
	shardIDs []string     // shard names, index-aligned with the ring
	interval time.Duration
	timeout  time.Duration
	maxStale time.Duration
	client   *http.Client
	merge    func(blobs ...[]byte) (core.Summary, error)
	epoch    uint64
	obs      *obs.Obs
	counters *obs.Set
	pullH    *obs.Histogram
	start    time.Time

	mu       sync.Mutex // guards nodeState fields, algo, mergeErr
	algo     string
	mergeErr string

	// rebuildMu serializes merged-view rebuilds (the Run ticker and POST
	// /refresh can overlap): without it, a rebuild that snapshotted older
	// blobs could finish its merge after — and publish over — a newer
	// view, making the served N move backward right after /refresh
	// acknowledged the fresher state.
	rebuildMu sync.Mutex

	merged atomic.Pointer[mergedView]
	merges atomic.Int64
}

// New validates opts and returns a Coordinator. No network traffic
// happens until PullAll or Run.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Nodes) == 0 && opts.ShardMap == nil {
		return nil, fmt.Errorf("cluster: at least one node URL (or a shard map) is required")
	}
	if opts.MergeEncoded == nil {
		return nil, fmt.Errorf("cluster: Options.MergeEncoded is required (streamfreq.MergeEncoded)")
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.Client == nil {
		opts.Client = router.NewHTTPClient(opts.Timeout)
	}
	if opts.Epoch == 0 {
		opts.Epoch = uint64(time.Now().UnixNano())
	}
	if opts.Obs == nil {
		opts.Obs = obs.Discard("freqmerge")
	}
	c := &Coordinator{
		interval: opts.Interval,
		timeout:  opts.Timeout,
		maxStale: opts.MaxStale,
		client:   opts.Client,
		merge:    opts.MergeEncoded,
		epoch:    opts.Epoch,
		algo:     opts.Algo,
		obs:      opts.Obs,
		counters: obs.NewSet(opts.Obs.Reg, "freq"),
		start:    time.Now(),
	}
	seen := make(map[string]bool)
	addNode := func(u string, shard int) error {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return fmt.Errorf("cluster: empty node URL")
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if seen[u] {
			return fmt.Errorf("cluster: duplicate node %s (its stream would be merged twice)", u)
		}
		seen[u] = true
		c.nodes = append(c.nodes, &nodeState{url: u, shard: shard})
		return nil
	}
	if opts.ShardMap != nil {
		ring, err := opts.ShardMap.Ring()
		if err != nil {
			return nil, err
		}
		c.ring = ring
		for si, sh := range opts.ShardMap.Shards {
			if len(sh.Replicas) == 0 {
				return nil, fmt.Errorf("cluster: shard %q has no replicas in the shard map", sh.ID)
			}
			c.shardIDs = append(c.shardIDs, sh.ID)
			for _, rep := range sh.Replicas {
				if err := addNode(rep.URL, si); err != nil {
					return nil, err
				}
			}
		}
		c.bindMetrics()
		return c, nil
	}
	for _, u := range opts.Nodes {
		if err := addNode(u, len(c.nodes)); err != nil { // each node is its own shard
			return nil, err
		}
	}
	c.bindMetrics()
	return c, nil
}

// bindMetrics registers the coordinator's series: pull latency and the
// stats document, read once per scrape. Called once from New.
func (c *Coordinator) bindMetrics() {
	reg := c.obs.Reg
	c.pullH = reg.Histogram("freq_pull_seconds",
		"Latency of one node summary pull (request, read, decode).", obs.LatencyOpts())
	reg.Stats(func() any { return c.stats() })
}

// pullNode fetches one node's /summary and returns its decoded
// summaries by namespace plus the node's epoch. The Content-Type picks
// the decoder: a tenant bundle decodes entry by entry, anything else is
// one registry blob stored as the default namespace "". It validates
// eagerly — decode errors are this node's failure, recorded against
// it, rather than a later cluster-wide merge failure — and each blob is
// decoded exactly once per pull: the summaries (not the blobs) are what
// the coordinator retains and combines.
func (c *Coordinator) pullNode(ctx context.Context, ns *nodeState) (sums map[string]core.Summary, epoch uint64, err error) {
	defer c.pullH.ObserveSince(time.Now())
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ns.url+"/summary", nil)
	if err != nil {
		return nil, 0, err
	}
	// Tag the pull with the round's trace ID so one coordinator round is
	// correlatable across its own log line and every node's request log.
	if tid := obs.TraceFrom(ctx); tid != "" {
		req.Header.Set(obs.TraceHeader, tid)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, 0, fmt.Errorf("GET /summary: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxSummaryBytes+1))
	if err != nil {
		return nil, 0, fmt.Errorf("reading summary body: %w", err)
	}
	if len(blob) > maxSummaryBytes {
		return nil, 0, fmt.Errorf("summary body exceeds %d bytes", maxSummaryBytes)
	}
	epoch, err = strconv.ParseUint(resp.Header.Get(serve.HeaderEpoch), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("bad %s header %q", serve.HeaderEpoch, resp.Header.Get(serve.HeaderEpoch))
	}

	// The headers describe, the blob decides: position and algorithm
	// come from the decoded summaries.
	entries := []tenant.NamespaceBlob{{NS: "", Blob: blob}}
	if resp.Header.Get("Content-Type") == serve.TenantBundleContentType {
		if entries, err = tenant.DecodeBundle(blob); err != nil {
			return nil, 0, fmt.Errorf("undecodable bundle: %w", err)
		}
	}
	sums = make(map[string]core.Summary, len(entries))
	for _, e := range entries {
		sum, err := c.merge(e.Blob)
		if err != nil {
			return nil, 0, fmt.Errorf("undecodable summary%s: %w", nsSuffix(e.NS), err)
		}
		sums[e.NS] = sum
	}
	return sums, epoch, nil
}

// nsSuffix names a non-default namespace in an error message.
func nsSuffix(name string) string {
	if name == "" {
		return ""
	}
	return fmt.Sprintf(" in namespace %q", name)
}

// PullAll performs one pull round: every node concurrently, then one
// merged-view rebuild from the latest good blobs. It is what Run calls
// on each tick, exposed for deterministic tests and POST /refresh.
func (c *Coordinator) PullAll(ctx context.Context) {
	// One trace ID per pull round: forwarded on every node request (and
	// logged by the nodes), so a round's fan-out is one grep away. A
	// caller-supplied trace (POST /refresh) wins over a fresh mint.
	if obs.TraceFrom(ctx) == "" {
		ctx = obs.WithTrace(ctx, obs.NewTraceID())
	}
	var wg sync.WaitGroup
	for _, ns := range c.nodes {
		wg.Add(1)
		go func(ns *nodeState) {
			defer wg.Done()
			sums, epoch, err := c.pullNode(ctx, ns)
			c.record(ctx, ns, sums, epoch, err)
		}(ns)
	}
	wg.Wait()
	c.rebuild()
}

// record is the bookkeeping of one pull, whatever the node ships:
// algorithm adoption and mismatch, epoch-change restarts, counters and
// log lines, then the wholesale replacement of the node's contribution.
func (c *Coordinator) record(ctx context.Context, ns *nodeState, sums map[string]core.Summary, epoch uint64, err error) {
	tid := obs.TraceFrom(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		ns.failures++
		ns.lastErr = err.Error()
		c.counters.Add("pulls.failed", 1)
		c.obs.Log.LogAttrs(ctx, slog.LevelWarn, "pull failed",
			slog.String("trace", tid), slog.String("node", ns.url), slog.String("error", err.Error()))
		return
	}
	var n int64
	for name, sum := range sums {
		algo := sum.Name()
		if c.algo == "" {
			c.algo = algo // adopt the cluster's algorithm from the first pull
		}
		if algo != c.algo {
			ns.failures++
			ns.lastErr = fmt.Sprintf("algorithm mismatch%s: node serves %s, cluster is %s", nsSuffix(name), algo, c.algo)
			c.counters.Add("pulls.mismatched", 1)
			return
		}
		n += sum.N()
	}
	if ns.epoch != 0 && epoch != ns.epoch {
		// The node restarted since the last good pull. Its summaries are
		// cumulative again (durable nodes replay their WAL), so the
		// wholesale replacement below is exactly right; the counter
		// makes the restart visible to operators.
		ns.restarts++
		c.counters.Add("nodes.restarts", 1)
		c.obs.Log.LogAttrs(ctx, slog.LevelInfo, "node restarted",
			slog.String("trace", tid), slog.String("node", ns.url),
			slog.Uint64("old_epoch", ns.epoch), slog.Uint64("new_epoch", epoch))
	}
	ns.sums, ns.n, ns.epoch, ns.algo = sums, n, epoch, c.algo
	ns.lastPull = time.Now()
	ns.pulls++
	ns.lastErr = ""
	c.counters.Add("pulls.ok", 1)
}

// rebuild combines the latest good summaries into a fresh serving view.
// Per (namespace, shard) it picks the contribution with the highest
// stream position among nodes inside the freshness SLO — replicas of a
// ring shard saw the same substream, so exactly one serves (the most
// caught-up survivor, which under the router's failover guarantee holds
// every acknowledged item of the shard; a recovered-but-behind replica
// is pulled and tracked, but not picked until it catches up). Each
// namespace's picks are then combined: by disjoint union when a ring
// partitions the stream, by merge otherwise. Nodes with nothing pulled
// yet contribute nothing; nodes whose last attempt failed contribute
// their stale summaries. The stored summaries are never mutated, so
// each node's state survives for the next cycle. A merge failure (same
// algorithm label but incompatible parameters — e.g. nodes provisioned
// at different φ) keeps the previous view serving and surfaces the
// error in Stats.
func (c *Coordinator) rebuild() {
	c.rebuildMu.Lock()
	defer c.rebuildMu.Unlock()
	shards := len(c.nodes)
	if c.ring != nil {
		shards = c.ring.Shards()
	}

	c.mu.Lock()
	picks := make(map[string][]*nodeState) // namespace → shard → picked node
	mv := &mergedView{}
	for _, ns := range c.nodes {
		ns.dropped, ns.picked = false, false
		if len(ns.sums) == 0 {
			continue
		}
		stale := c.maxStale > 0 && time.Since(ns.lastPull) > c.maxStale
		if stale {
			// Past the freshness SLO: partial-but-fresh beats complete-
			// but-stale, so this node's last good state sits out every
			// namespace (and the merged N) until a pull succeeds again.
			// The flag is set here, at rebuild time, so the per-node rows
			// and the cluster counters in /stats describe the same
			// serving view.
			ns.dropped = true
			mv.dropped++
		}
		for name, sum := range ns.sums {
			p := picks[name]
			if p == nil {
				p = make([]*nodeState, shards)
				picks[name] = p
			}
			if b := p[ns.shard]; !stale && (b == nil || sum.N() > b.sums[name].N()) {
				p[ns.shard] = ns
			}
		}
	}
	if len(picks) == 0 {
		c.mu.Unlock()
		return // before the first good pull: keep serving the empty stream
	}
	covered := make([]bool, shards)
	parts := make(map[string][]core.Summary, len(picks))
	for name, p := range picks {
		part := make([]core.Summary, shards)
		for si, b := range p {
			if b != nil {
				b.picked, covered[si] = true, true
				part[si] = b.sums[name]
			}
		}
		parts[name] = part
	}
	for _, ns := range c.nodes {
		if ns.picked {
			mv.have++
			if ns.lastErr == "" {
				mv.fresh++
			}
		}
	}
	if c.ring != nil {
		for _, ok := range covered {
			if !ok {
				mv.missing++
			}
		}
	}
	c.mu.Unlock()

	mv.views = make(map[string]core.ReadView, len(parts))
	for name, part := range parts {
		v, err := c.combine(part)
		if err != nil {
			c.mu.Lock()
			c.mergeErr = err.Error() + nsSuffix(name)
			c.mu.Unlock()
			c.counters.Add("merges.failed", 1)
			return
		}
		if v != nil {
			mv.views[name] = v
		}
	}
	mv.builtAt = time.Now()
	c.mu.Lock()
	c.mergeErr = ""
	c.mu.Unlock()
	c.merged.Store(mv)
	c.merges.Add(1)
	c.counters.Add("merges.ok", 1)
}

// combine builds one namespace's view from its per-shard picks (nil
// where a shard has none): a PartitionedView over the ring's disjoint
// partitions, or the merge of independent node streams — nil when no
// node contributes.
func (c *Coordinator) combine(part []core.Summary) (core.ReadView, error) {
	if c.ring != nil {
		var n int64
		for _, s := range part {
			if s != nil {
				n += s.N()
			}
		}
		return &PartitionedView{ring: c.ring, shards: part, n: n}, nil
	}
	var sums []core.Summary
	for _, s := range part {
		if s != nil {
			sums = append(sums, s)
		}
	}
	if len(sums) == 0 {
		return nil, nil
	}
	return mergeSummaries(sums)
}

// mergeSummaries folds the per-node summaries into one independent
// summary, leaving the inputs untouched.
func mergeSummaries(sums []core.Summary) (core.Summary, error) {
	sn, ok := sums[0].(core.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("cluster: %s cannot be cloned for merging", sums[0].Name())
	}
	merged := sn.Snapshot()
	if len(sums) == 1 {
		return merged, nil
	}
	m, ok := merged.(core.Merger)
	if !ok {
		return nil, fmt.Errorf("cluster: %s does not support merging", merged.Name())
	}
	for i, s := range sums[1:] {
		if err := m.Merge(s); err != nil {
			return nil, fmt.Errorf("cluster: merging node summary %d: %w", i+1, err)
		}
	}
	return merged, nil
}

// Run pulls immediately, then on every interval tick, until ctx is
// cancelled.
func (c *Coordinator) Run(ctx context.Context) {
	c.PullAll(ctx)
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.PullAll(ctx)
		}
	}
}

// emptyView serves before the first successful pull: a zero-length
// stream, exactly what a node that has ingested nothing reports.
type emptyView struct{}

func (emptyView) N() int64                     { return 0 }
func (emptyView) Estimate(core.Item) int64     { return 0 }
func (emptyView) Query(int64) []core.ItemCount { return nil }

// ServingView returns the current merged epoch as an immutable
// core.ReadView — the same pin-one-view-per-request contract as the
// node wrappers' ServingView. Before the first good pull, and when the
// freshness SLO has dropped every contribution, it serves the empty
// stream.
func (c *Coordinator) ServingView() core.ReadView {
	if v, ok := c.namespace(""); ok {
		return v
	}
	return emptyView{}
}

// namespace returns one namespace's view in the current merged epoch.
func (c *Coordinator) namespace(name string) (core.ReadView, bool) {
	mv := c.merged.Load()
	if mv == nil {
		return nil, false
	}
	v, ok := mv.views[name]
	return v, ok
}

// N implements core.ReadView over the merged state.
func (c *Coordinator) N() int64 { return c.ServingView().N() }

// Estimate implements core.ReadView over the merged state.
func (c *Coordinator) Estimate(x core.Item) int64 { return c.ServingView().Estimate(x) }

// Query implements core.ReadView over the merged state.
func (c *Coordinator) Query(threshold int64) []core.ItemCount {
	return c.ServingView().Query(threshold)
}

// NodeStats is one node's row in Stats.
type NodeStats struct {
	URL string `json:"url"`
	// Shard is the shard ID this node replicates when a shard map is
	// configured ("" without one, where each node is its own shard);
	// Picked whether it is the replica chosen to serve its shard, for at
	// least one namespace, in the current view.
	Shard    string `json:"shard"`
	Picked   bool   `json:"picked"`
	Algo     string `json:"algo"`
	N        int64  `json:"n"`
	Epoch    uint64 `json:"epoch"`
	Pulls    int64  `json:"pulls"`
	Failures int64  `json:"failures"`
	Restarts int64  `json:"restarts"`
	// HasData reports whether the node has contributed at least one
	// good blob; Stale whether what it contributes is older than its
	// most recent (failed) attempt; Dropped whether the freshness SLO
	// (-max-stale) excluded its contribution at the last rebuild — the
	// same rebuild the cluster-level Fresh/Have/Dropped counters and
	// the serving view describe.
	HasData bool `json:"has_data"`
	Stale   bool `json:"stale"`
	Dropped bool `json:"dropped"`
	// Age is the time since the last good pull (zero when none yet).
	Age     core.Millis `json:"last_pull_ms"`
	LastErr string      `json:"error"`
}

// Stats is the coordinator's observability snapshot, the cluster
// section of freqmerge's stats document (see obs.Registry.Stats for the
// tags). Per-node rows stay out of the metric space, since node URLs
// are unbounded label values; NodeCount and Restarts aggregate them.
type Stats struct {
	Algo      string      `json:"-"` // reported at the document's top level
	Nodes     []NodeStats `json:"nodes"`
	NodeCount int         `json:"-" metric:"freq_cluster_nodes" help:"Nodes (or shard replicas) the coordinator pulls."`
	Restarts  int64       `json:"-" metric:"freq_node_restarts_total" help:"Node process restarts observed across pulls (epoch changes)."`
	Merges    int64       `json:"merges" metric:"freq_merges_total" help:"Merged-view rebuilds published."`
	MergeAge  core.Millis `json:"merge_age_ms" metric:"freq_merge_age_seconds" help:"Age of the serving merged view."`
	MergeErr  string      `json:"merge_error"`
	Fresh     int         `json:"fresh_nodes" metric:"freq_cluster_fresh_nodes" help:"Nodes fresh in the serving view."`
	Have      int         `json:"have_nodes" metric:"freq_cluster_have_nodes" help:"Nodes contributing to the serving view (fresh or stale)."`
	Dropped   int         `json:"dropped_nodes" metric:"freq_cluster_dropped_nodes" help:"Nodes excluded from the serving view by the -max-stale bound."`
	MaxStale  core.Millis `json:"max_stale_ms"` // the freshness SLO (0 = serve stale forever)
	// With a shard map: the shard count of the write tier's map, and
	// how many shards have no usable contribution in the serving view
	// (their key ranges answer zero).
	Partitioned bool `json:"partitioned"`
	Shards      int  `json:"shards"`
	Missing     int  `json:"missing_shards" metric:"freq_cluster_missing_shards" help:"Shards with no usable contribution (partitioned mode)."`
}

// Stats reports the per-node and merged state.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	st := Stats{
		Algo:        c.algo,
		NodeCount:   len(c.nodes),
		MergeErr:    c.mergeErr,
		MaxStale:    core.Millis(c.maxStale),
		Partitioned: c.ring != nil,
	}
	if c.ring != nil {
		st.Shards = c.ring.Shards()
	}
	for _, ns := range c.nodes {
		row := NodeStats{
			URL:      ns.url,
			Picked:   ns.picked,
			Algo:     ns.algo,
			N:        ns.n,
			Epoch:    ns.epoch,
			Pulls:    ns.pulls,
			Failures: ns.failures,
			Restarts: ns.restarts,
			HasData:  len(ns.sums) > 0,
			Stale:    len(ns.sums) > 0 && ns.lastErr != "",
			Dropped:  ns.dropped,
			LastErr:  ns.lastErr,
		}
		if c.ring != nil {
			row.Shard = c.shardIDs[ns.shard]
		}
		if !ns.lastPull.IsZero() {
			row.Age = core.Millis(time.Since(ns.lastPull))
		}
		st.Nodes = append(st.Nodes, row)
		st.Restarts += ns.restarts
	}
	c.mu.Unlock()

	st.Merges = c.merges.Load()
	if v := c.merged.Load(); v != nil {
		st.MergeAge = core.Millis(time.Since(v.builtAt))
		st.Fresh, st.Have, st.Dropped = v.fresh, v.have, v.dropped
		st.Missing = v.missing
	}
	return st
}

// Counters exposes the coordinator's traffic counter set (shared with
// the HTTP handler so /stats reports query traffic like a node does,
// and scrapeable as freq_*_total series on /v1/metrics).
func (c *Coordinator) Counters() *obs.Set { return c.counters }
