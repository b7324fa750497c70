// Command freqmerge serves frequent-items queries over a whole cluster:
// it periodically pulls the summary blob from every freqd node, merges
// them (the paper's X2 merge experiment as a network service), and
// answers /topk and /estimate over the union stream through the same
// HTTP API as a single node — point clients at a freqmerge and they
// cannot tell the difference.
//
// Usage:
//
//	freqmerge -nodes http://10.0.0.1:8080,http://10.0.0.2:8080 -addr :8090
//	freqmerge -nodes node1:8080,node2:8080 -interval 500ms -algo SSH
//	freqmerge -router http://10.0.0.9:8070 -addr :8090
//
// One model covers every topology: for each namespace and shard the
// coordinator serves the freshest replica, then combines the shards.
// With -nodes each node is its own shard and the shards merge. With
// -router the coordinator pulls the write tier's /shardmap instead:
// every replica of every shard is pulled, but the serving view is
// partition-exact — exactly one replica per shard (the most caught-up),
// routed by the tier's hash ring — so estimates carry the
// per-partition error bound instead of merge-inflated noise, and
// replicas are never double-counted. Tenancy needs no flag: a
// tenant-mode node (freqd -tenants) ships every namespace in its
// /summary, and each namespace is combined the same way.
//
// Query (identical to freqd):
//
//	curl 'localhost:8090/topk?phi=0.001&k=20'
//	curl 'localhost:8090/estimate?item=123'
//	curl 'localhost:8090/v1/t/eu/topk?phi=0.01'  # one namespace of tenant-mode nodes
//	curl 'localhost:8090/v1/tenants'             # merged namespaces and their n
//	curl 'localhost:8090/stats'          # + per-node freshness/epochs/errors
//	curl -X POST localhost:8090/refresh  # pull every node now
//
// Semantics under failure: an unreachable node keeps serving its last
// pulled summary (stale, surfaced in /stats) — unless -max-stale bounds
// the staleness, past which the node's contribution is dropped from the
// merge (and the merged N) until a pull succeeds again; a restarted node is
// detected by its changed epoch and its summary replaced wholesale —
// durable nodes replay their WAL and come back cumulative, so nothing
// is ever double-counted; a node running a different algorithm is
// rejected with a clear per-node error. Coordinators stack: freqmerge
// serves GET /summary of its merged state, so a higher tier can pull
// a region's coordinator exactly like a node.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streamfreq"
	"streamfreq/internal/cluster"
	"streamfreq/internal/obs"
	"streamfreq/internal/router"
)

func main() {
	var (
		addr      = flag.String("addr", ":8090", "listen address")
		nodes     = flag.String("nodes", "", "comma-separated freqd base URLs (this or -router is required)")
		routerURL = flag.String("router", "", "freqrouter base URL: pull its /shardmap and serve partition-exactly")
		interval  = flag.Duration("interval", time.Second, "summary pull cadence")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-node pull timeout")
		algo      = flag.String("algo", "", "required algorithm code; empty adopts the first node's")
		maxStale  = flag.Duration("max-stale", 0, "drop a node's contribution once its data is older than this (0 = serve stale forever)")
		logFormat = flag.String("log-format", "text", "structured log format: text | json")
		slowQuery = flag.Duration("slow-query", 0, "log requests slower than this at warn level with per-stage timings (0 = off)")
	)
	flag.Parse()
	o, err := obs.New(obs.Options{
		Service:   "freqmerge",
		LogFormat: *logFormat,
		LogWriter: os.Stderr,
		SlowQuery: *slowQuery,
	})
	if err != nil {
		fatal(err)
	}
	switch {
	case *nodes == "" && *routerURL == "":
		fatal(fmt.Errorf("-nodes or -router is required (e.g. -nodes http://host1:8080,http://host2:8080)"))
	case *nodes != "" && *routerURL != "":
		fatal(fmt.Errorf("-nodes and -router are exclusive: the shard map already names every replica"))
	}

	opts := cluster.Options{
		Interval:     *interval,
		Timeout:      *timeout,
		Algo:         *algo,
		MaxStale:     *maxStale,
		MergeEncoded: streamfreq.MergeEncoded,
		Obs:          o,
	}
	if *routerURL != "" {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		m, err := router.FetchShardMap(ctx, nil, *routerURL)
		cancel()
		if err != nil {
			fatal(err)
		}
		opts.ShardMap = m
	} else {
		opts.Nodes = strings.Split(*nodes, ",")
	}

	coord, err := cluster.New(opts)
	if err != nil {
		fatal(err)
	}

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		o.Log.Info("draining on signal", "signal", s.String())
		close(stop)
	}()

	if opts.ShardMap != nil {
		replicas := 0
		for _, sh := range opts.ShardMap.Shards {
			replicas += len(sh.Replicas)
		}
		o.Log.Info("serving partition-exact", "shards", len(opts.ShardMap.Shards),
			"replicas", replicas, "interval", *interval, "addr", *addr)
	} else {
		o.Log.Info("serving", "nodes", len(opts.Nodes), "interval", *interval, "addr", *addr)
	}
	if err := coord.ListenAndServe(*addr, stop); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "freqmerge:", err)
	os.Exit(1)
}
