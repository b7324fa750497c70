package router

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/obs"
	"streamfreq/internal/serve"
	"streamfreq/internal/stream"
)

// The router's HTTP surface. POST /ingest is wire-compatible with a
// freqd node's — same Content-Types, same decoders (stream.OpenIngest),
// same ack shape — so clients point at the tier instead of a node and
// change nothing. The tier-only endpoints are /shardmap (the partition
// contract), /stats (traffic and health counters), and POST /probe
// (an on-demand health sweep, so operators and tests can force
// re-adoption instead of waiting out the probe interval).
//
// Text-mode ingest is hashed at the router and forwarded as binary
// items; token spellings are not propagated to shards, so label lookups
// (/topk tokens) are a per-node feature the tier does not aggregate.

// Handler returns the router's HTTP API mux: the /v1 surface with the
// pre-versioning paths as aliases, like the other daemons.
func (rt *Router) Handler() http.Handler { return rt.API().Handler() }

// API returns the router's assembled route set — exposed so the docs
// test can diff the README API-reference table against the live mux.
func (rt *Router) API() *serve.API {
	api := serve.NewAPI(rt.obs)
	api.Route("POST", "/ingest", rt.handleIngest, "/ingest")
	api.Route("GET", "/stats", rt.handleStats, "/stats")
	api.Route("GET", "/shardmap", rt.handleShardMap, "/shardmap")
	api.Route("POST", "/probe", rt.handleProbe, "/probe")
	return api
}

// handleIngest streams the request body in bounded batches: decode,
// split by ring, fan each shard's sub-batch to its replicas, and only
// then decode the next batch — so per-shard arrival order is the
// client's send order, and a slow shard backpressures the request
// instead of buffering the body.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, rt.maxIn)
	src, err := stream.OpenIngest(r.Header.Get("Content-Type"), body, 0)
	if err != nil {
		rt.counters.Add("router.rejected", 1)
		if errors.Is(err, stream.ErrUnsupportedMedia) {
			serve.HTTPError(w, http.StatusUnsupportedMediaType, "%v", err)
			return
		}
		serve.HTTPError(w, http.StatusBadRequest, "bad stream file: %v", err)
		return
	}

	buf := make([]core.Item, rt.batch)
	perShard := make([][]core.Item, rt.ring.Shards())
	var acked, shed int64
	forwardStart := time.Now()
	for {
		n := src.NextBatch(buf)
		if n == 0 {
			break
		}
		for i := range perShard {
			perShard[i] = perShard[i][:0]
		}
		rt.ring.Split(buf[:n], perShard)
		var wg sync.WaitGroup
		for si, items := range perShard {
			if len(items) == 0 {
				continue
			}
			wg.Add(1)
			go func(si int, items []core.Item) {
				defer wg.Done()
				if rt.forwardShard(r.Context(), si, items) {
					atomic.AddInt64(&acked, int64(len(items)))
				} else {
					atomic.AddInt64(&shed, int64(len(items)))
				}
			}(si, items)
		}
		wg.Wait()
	}
	rt.counters.Add("router.requests", 1)
	obs.AddStage(r.Context(), "forward", time.Since(forwardStart))
	obs.Annotate(r.Context(), "items", acked)
	if shed > 0 {
		obs.Annotate(r.Context(), "shed", shed)
	}

	if err := src.Err(); err != nil {
		// Batches decoded before the failure are already forwarded (the
		// stream model has no transactions), matching single-node ingest
		// semantics: report what landed, signal the cut.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			serve.HTTPError(w, http.StatusRequestEntityTooLarge,
				"body exceeds %d-byte ingest limit (ingested %d items); split into smaller requests", tooBig.Limit, acked)
			return
		}
		serve.HTTPError(w, http.StatusBadRequest, "body truncated or corrupt after %d items: %v", acked, err)
		return
	}
	// The ack mirrors a node's ({"ingested", "n"}) plus the tier-only
	// shed count. Shed items mean degraded shards dropped part of the
	// body: the client must not treat the write as fully acknowledged,
	// so the status says so even though the rest landed.
	status := http.StatusOK
	if shed > 0 {
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, status, map[string]int64{
		"ingested": acked,
		"shed":     shed,
		"n":        rt.counters.Get("router.routed_items"),
	})
}

// handleStats reports tier traffic and per-shard health.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	m := rt.ShardMap()
	c := rt.counters.Snapshot()
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"shards":       len(rt.shards),
		"vnodes":       rt.ring.VNodes(),
		"uptime_ms":    time.Since(rt.start).Milliseconds(),
		"requests":     c["router.requests"],
		"n":            c["router.routed_items"],
		"shed":         c["router.shed_items"],
		"retries":      c["router.retries"],
		"rejected":     c["router.rejected"],
		"counters":     c,
		"shard_status": m.Shards,
	})
}

// handleShardMap publishes the partition contract.
func (rt *Router) handleShardMap(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, rt.ShardMap())
}

// handleProbe runs one health sweep now and returns the refreshed map.
func (rt *Router) handleProbe(w http.ResponseWriter, r *http.Request) {
	rt.Probe(r.Context())
	serve.WriteJSON(w, http.StatusOK, rt.ShardMap())
}

// ListenAndServe serves the API on addr until stop is closed, then
// drains in-flight requests — the testable core of cmd/freqrouter,
// mirroring serve.Server.ListenAndServe.
func (rt *Router) ListenAndServe(addr string, stop <-chan struct{}) error {
	srv := &http.Server{Addr: addr, Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-stop:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}
