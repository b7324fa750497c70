package cluster

import (
	"context"
	"net/http"
	"sort"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/serve"
)

// The coordinator's HTTP surface mirrors a node's, so clients (and
// higher-tier coordinators) cannot tell a freqmerge from a freqd:
//
//	GET  /topk      identical to a node's (shared serve.QueryHandlers)
//	GET  /estimate  identical to a node's
//	GET  /summary   the merged summary's Encode blob — coordinators stack
//	GET  /stats     a node's shape, plus a "cluster" section with
//	                per-node freshness, epochs, restarts, and errors
//	POST /refresh   pull every node now (a node's /refresh re-snapshots;
//	                the coordinator's re-pulls — same "make reads fresh
//	                and deterministic" contract)
//	POST /ingest    rejected with a pointer to the nodes: the coordinator
//	                aggregates summaries, it does not own a stream
//	GET  /v1/t/{ns}/topk, /v1/t/{ns}/estimate, /v1/tenants
//	                the same reads per namespace, over tenant-mode nodes

// Handler returns the coordinator's HTTP API mux — the same /v1
// surface (with legacy aliases) a node serves, so clients cannot tell
// a freqmerge from a freqd.
func (c *Coordinator) Handler() http.Handler { return c.API().Handler() }

// API returns the coordinator's assembled route set — exposed so the
// docs test can diff the README API-reference table against the live
// mux, exactly as it does for a node.
func (c *Coordinator) API() *serve.API {
	q := &serve.QueryHandlers{View: c.ServingView, Counters: c.counters}
	api := serve.NewAPI(c.obs)
	api.Route("GET", "/topk", q.TopK, "/topk")
	api.Route("GET", "/estimate", q.Estimate, "/estimate")
	// The rich query surface dispatches on the merged summary's
	// capabilities: a cluster of CMH nodes answers /v1/hhh here because
	// the merged view is itself a Hierarchical, a GK cluster answers
	// /v1/quantile, and anything else gets the 404 envelope.
	api.Route("GET", "/hhh", q.HHH)
	api.Route("GET", "/range", q.Range)
	api.Route("GET", "/quantile", q.Quantile)
	api.Route("GET", "/summary", c.handleSummary, "/summary")
	api.Route("GET", "/stats", c.handleStats, "/stats")
	api.Route("POST", "/refresh", c.handleRefresh, "/refresh")
	api.Route("POST", "/ingest", c.handleIngest, "/ingest")
	// Every merged namespace answers under /v1/t/{ns}/...; over plain
	// nodes the only namespace is the default one, which these routes
	// cannot name, so they 404 like any namespace without merged data.
	api.Route("GET", "/t/{ns}/topk", c.namespaceQuery((*serve.QueryHandlers).TopK))
	api.Route("GET", "/t/{ns}/estimate", c.namespaceQuery((*serve.QueryHandlers).Estimate))
	api.Route("GET", "/tenants", c.handleTenants)
	return api
}

// namespaceQuery serves one /v1/t/{ns}/... read over the namespace's
// merged view, pinned for the request.
func (c *Coordinator) namespaceQuery(query func(*serve.QueryHandlers, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("ns")
		v, ok := c.namespace(name)
		if !ok {
			serve.HTTPError(w, http.StatusNotFound, "namespace %q has no merged data on this coordinator", name)
			return
		}
		query(&serve.QueryHandlers{View: func() core.ReadView { return v }, Counters: c.counters}, w, r)
	}
}

// handleTenants lists the merged namespaces with their union-stream
// positions.
func (c *Coordinator) handleTenants(w http.ResponseWriter, r *http.Request) {
	type row struct {
		NS string `json:"ns"`
		N  int64  `json:"n"`
	}
	rows := []row{}
	if mv := c.merged.Load(); mv != nil {
		for name, v := range mv.views {
			rows = append(rows, row{NS: name, N: v.N()})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].NS < rows[j].NS })
	serve.WriteJSON(w, http.StatusOK, map[string]any{"namespaces": rows})
}

// handleSummary re-exports the merged state in the node wire format, so
// a coordinator is itself a valid pull target: clusters fan in
// hierarchically with no new protocol. 404 until the first good pull —
// there is no algorithm to encode yet.
func (c *Coordinator) handleSummary(w http.ResponseWriter, r *http.Request) {
	v, ok := c.namespace("")
	if !ok {
		serve.HTTPError(w, http.StatusNotFound, "no merged summary to export (no successful pull, or every node is past -max-stale)")
		return
	}
	sum, ok := v.(core.Summary)
	if !ok {
		// A partitioned view is deliberately not one summary: collapsing
		// it to a single blob would trade its per-partition bounds for
		// merge noise. Higher tiers should pull the shards themselves.
		serve.HTTPError(w, http.StatusNotImplemented,
			"a partitioned view has no single summary blob; pull the shard replicas directly")
		return
	}
	c.mu.Lock()
	algo := c.algo
	c.mu.Unlock()
	c.counters.Add("summary.pulls", 1)
	serve.WriteSummary(w, algo, c.epoch, sum)
}

// coordStats is freqmerge's stats document: a node's vitals plus the
// cluster section. GET /stats marshals it and /v1/metrics renders its
// tagged fields (obs.Registry.Stats).
type coordStats struct {
	Algo     string           `json:"algo"`
	Summary  string           `json:"summary"`
	N        int64            `json:"n" metric:"freq_merged_n" help:"Stream position of the merged serving view."`
	Epoch    uint64           `json:"epoch"`
	Uptime   core.Millis      `json:"uptime_ms" metric:"freq_uptime_seconds" help:"Seconds since process start."`
	Counters map[string]int64 `json:"counters"`
	Cluster  Stats            `json:"cluster"`
}

// stats reads the coordinator's stats document.
func (c *Coordinator) stats() coordStats {
	st := c.Stats()
	return coordStats{
		Algo:     st.Algo,
		Summary:  "merged",
		N:        c.N(),
		Epoch:    c.epoch,
		Uptime:   core.Millis(time.Since(c.start)),
		Counters: c.counters.Snapshot(),
		Cluster:  st,
	}
}

// handleStats reports the coordinator's stats document.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.stats())
}

// handleRefresh pulls every node synchronously, so operators and tests
// get deterministic freshness the way a node's /refresh re-snapshots.
func (c *Coordinator) handleRefresh(w http.ResponseWriter, r *http.Request) {
	c.PullAll(r.Context())
	c.counters.Add("refresh.forced", 1)
	serve.WriteJSON(w, http.StatusOK, map[string]int64{"n": c.N()})
}

// handleIngest names the contract instead of silently 404ing: streams
// are ingested at the nodes, summaries merged here.
func (c *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	serve.HTTPError(w, http.StatusNotImplemented,
		"the coordinator does not ingest; POST /ingest to a node, the merge pulls it in")
}

// ListenAndServe serves the coordinator API on addr while running the
// pull loop, until stop is closed (or a listener error); then the pull
// loop is cancelled and in-flight requests drain. The freqmerge command
// is flags and signals around this.
func (c *Coordinator) ListenAndServe(addr string, stop <-chan struct{}) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)
	return serve.ListenAndServe(addr, c.Handler(), stop)
}

// compile-time: the coordinator is a ReadView like any node snapshot.
var _ core.ReadView = (*Coordinator)(nil)
