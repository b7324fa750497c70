package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/obs"
	"streamfreq/internal/serve"
	"streamfreq/internal/stream"
)

// ShardConfig declares one shard of the write tier: a stable ID (the
// ring hashes it, so renaming a shard moves its arcs) and the base URLs
// of its freqd replicas. Every replica receives every write routed to
// the shard; one surviving replica is enough to acknowledge.
type ShardConfig struct {
	ID       string
	Replicas []string
}

// Options configures a Router.
type Options struct {
	// Shards declares the partitions and their replica sets (required,
	// at least one shard with at least one replica each).
	Shards []ShardConfig
	// VNodes is the virtual-node count per shard on the hash ring
	// (defaults to DefaultVNodes). It must match what a shard-map-aware
	// coordinator uses, which is why /shardmap publishes it.
	VNodes int
	// Timeout bounds one forward (or probe) attempt to one replica
	// (defaults to 5s).
	Timeout time.Duration
	// Retries is how many times a failed attempt is retried per replica
	// before the replica is marked down (defaults to 2). Only transport
	// errors and retryable statuses (429, 5xx) are retried; a 4xx is the
	// client's fault and fails fast.
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt
	// (defaults to 50ms).
	Backoff time.Duration
	// IngestBatch is how many items are decoded, split, and forwarded
	// per round (defaults to core.DefaultBatchSize).
	IngestBatch int
	// MaxIngestBytes bounds one /ingest request body (defaults to 64 MiB).
	MaxIngestBytes int64
	// Client is the forwarding HTTP client (defaults to
	// NewHTTPClient(Timeout), the shared intra-cluster transport
	// config; attempt deadlines come from Timeout, not the client).
	Client *http.Client
	// Obs is the observability plane: metric registry, structured
	// logger, slow-query threshold. Defaults to obs.Discard
	// ("freqrouter") — metrics still accumulate, logs go nowhere.
	Obs *obs.Obs
}

// replicaState is the router's view of one freqd replica. All fields
// are guarded by Router.mu; network calls never happen under the lock.
type replicaState struct {
	url      string
	down     bool
	epoch    uint64 // last observed process epoch (ingest ack or probe)
	hasEpoch bool
	n        int64 // last acknowledged stream position
	restarts int64 // observed epoch changes
	failures int64 // forward/probe failures (attempt sequences, not retries)
	lastErr  string
}

// shardState is one partition: its replica set and routed/shed item
// accounting.
type shardState struct {
	id       string
	replicas []*replicaState

	// Per-shard Prometheus series (bounded cardinality: one shard ID
	// label each): items acknowledged by >=1 replica, and items dropped
	// because no replica accepted them. The shard map reads them.
	routedC *obs.Counter
	shedC   *obs.Counter
}

// Router is the partitioned write tier: it splits ingest bodies across
// shards by consistent hash and fans each sub-batch to the shard's live
// replicas. It is safe for concurrent use.
type Router struct {
	ring    *Ring
	client  *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
	batch   int
	maxIn   int64
	start   time.Time

	obs *obs.Obs
	// counters is the one count of each router event, scrapeable as
	// freq_router_*_total in /v1/metrics and read back by /stats and the
	// ingest ack: router.requests, router.rejected (malformed or
	// oversized ingest requests), router.routed_items (items
	// acknowledged — the tier's "n"), router.shed_items,
	// router.retries (retry attempts beyond each first try),
	// router.down_marks (live→down transitions) and router.readoptions
	// (down→live).
	counters *obs.Set

	mu     sync.Mutex
	shards []*shardState

	// scratch holds *ingestScratch between ingest requests.
	scratch sync.Pool
}

// ingestScratch is one ingest request's reusable buffers: the decode
// batch and the ring split's per-shard sub-batches. forwardShard
// encodes its sub-batch into a payload of its own before it returns,
// so both are free again once a request's last round is acknowledged.
type ingestScratch struct {
	buf      []core.Item
	perShard [][]core.Item
}

// New builds a Router over opts.Shards.
func New(opts Options) (*Router, error) {
	ids := make([]string, len(opts.Shards))
	for i, sc := range opts.Shards {
		ids[i] = sc.ID
		if len(sc.Replicas) == 0 {
			return nil, fmt.Errorf("router: shard %q has no replicas", sc.ID)
		}
		for _, u := range sc.Replicas {
			if u == "" {
				return nil, fmt.Errorf("router: shard %q has an empty replica URL", sc.ID)
			}
		}
	}
	ring, err := NewRing(ids, opts.VNodes)
	if err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.Retries < 0 {
		return nil, fmt.Errorf("router: negative retry count %d", opts.Retries)
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 50 * time.Millisecond
	}
	if opts.IngestBatch <= 0 {
		opts.IngestBatch = core.DefaultBatchSize
	}
	if opts.MaxIngestBytes <= 0 {
		opts.MaxIngestBytes = 64 << 20
	}
	if opts.Client == nil {
		opts.Client = NewHTTPClient(opts.Timeout)
	}
	if opts.Obs == nil {
		opts.Obs = obs.Discard("freqrouter")
	}
	rt := &Router{
		obs:      opts.Obs,
		counters: obs.NewSet(opts.Obs.Reg, "freq"),
		ring:     ring,
		client:   opts.Client,
		timeout:  opts.Timeout,
		retries:  opts.Retries,
		backoff:  opts.Backoff,
		batch:    opts.IngestBatch,
		maxIn:    opts.MaxIngestBytes,
		start:    time.Now(),
		shards:   make([]*shardState, len(opts.Shards)),
	}
	rt.scratch.New = func() any {
		return &ingestScratch{buf: make([]core.Item, rt.batch), perShard: make([][]core.Item, ring.Shards())}
	}
	// Pre-create the split series so they scrape as 0 from the first
	// request instead of materializing on first increment — dashboards
	// and the chaos test can assert "shed is zero", not "shed is absent".
	for _, key := range []string{
		"router.requests", "router.rejected", "router.routed_items",
		"router.shed_items", "router.retries", "router.down_marks",
		"router.readoptions",
	} {
		rt.counters.Counter(key)
	}
	reg := opts.Obs.Reg
	for i, sc := range opts.Shards {
		s := &shardState{
			id:       sc.ID,
			replicas: make([]*replicaState, len(sc.Replicas)),
			routedC: reg.Counter("freq_router_shard_routed_items_total",
				"Items acknowledged by at least one replica of the shard.",
				obs.Label{Key: "shard", Value: sc.ID}),
			shedC: reg.Counter("freq_router_shard_shed_items_total",
				"Items dropped because no replica of the shard accepted them.",
				obs.Label{Key: "shard", Value: sc.ID}),
		}
		for j, u := range sc.Replicas {
			s.replicas[j] = &replicaState{url: strings.TrimRight(u, "/")}
		}
		rt.shards[i] = s
		reg.GaugeFunc("freq_router_replicas_up",
			"Replicas of the shard currently considered live.",
			func() float64 {
				rt.mu.Lock()
				defer rt.mu.Unlock()
				up := 0
				for _, rep := range s.replicas {
					if !rep.down {
						up++
					}
				}
				return float64(up)
			}, obs.Label{Key: "shard", Value: sc.ID})
		reg.CounterFunc("freq_router_replica_restarts_total",
			"Replica process restarts observed (epoch changes) across the shard.",
			func() float64 {
				rt.mu.Lock()
				defer rt.mu.Unlock()
				var n int64
				for _, rep := range s.replicas {
					n += rep.restarts
				}
				return float64(n)
			}, obs.Label{Key: "shard", Value: sc.ID})
	}
	reg.GaugeFunc("freq_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(rt.start).Seconds() })
	return rt, nil
}

// Counters exposes the router's named counter set (router.retries,
// router.shed_items, router.down_marks, router.readoptions, ...) for
// tests and embedders; HTTP clients read the same values via /stats
// and /v1/metrics.
func (rt *Router) Counters() *obs.Set { return rt.counters }

// Ring returns the router's hash ring (immutable, shared).
func (rt *Router) Ring() *Ring { return rt.ring }

// statusError is a non-200 ingest ack; 429 and 5xx are retryable (the
// replica is alive but shedding or failing transiently), other statuses
// are permanent for this payload.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	if e.body == "" {
		return fmt.Sprintf("HTTP %d", e.code)
	}
	return fmt.Sprintf("HTTP %d: %s", e.code, e.body)
}

func retryable(err error) bool {
	if se, ok := err.(*statusError); ok {
		return se.code == http.StatusTooManyRequests || se.code >= 500
	}
	return true // transport errors: the replica may be back next attempt
}

// ack is the replica's answer to one accepted forward: its cumulative
// stream position and process epoch.
type ack struct {
	n        int64
	epoch    uint64
	hasEpoch bool
}

// sendOnce forwards payload to one replica's /ingest and parses the ack.
func (rt *Router) sendOnce(ctx context.Context, base string, payload []byte) (ack, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/ingest", bytes.NewReader(payload))
	if err != nil {
		return ack{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	// Propagate the request's trace ID so one client ingest is
	// correlatable across the router's log line and every replica's.
	if tid := obs.TraceFrom(ctx); tid != "" {
		req.Header.Set(obs.TraceHeader, tid)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return ack{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return ack{}, &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(b))}
	}
	var body struct {
		N int64 `json:"n"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	a := ack{n: body.N}
	if h := resp.Header.Get(serve.HeaderEpoch); h != "" {
		if v, perr := strconv.ParseUint(h, 10, 64); perr == nil {
			a.epoch, a.hasEpoch = v, true
		}
	}
	return a, nil
}

// send forwards payload to one replica with bounded retry: up to
// 1+retries attempts, doubling backoff between them, giving up early on
// a non-retryable status or a cancelled request context.
func (rt *Router) send(ctx context.Context, base string, payload []byte) (ack, error) {
	backoff := rt.backoff
	for attempt := 0; ; attempt++ {
		a, err := rt.sendOnce(ctx, base, payload)
		if err == nil || attempt >= rt.retries || !retryable(err) || ctx.Err() != nil {
			return a, err
		}
		rt.counters.Add("router.retries", 1)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return a, err
		}
		backoff *= 2
	}
}

// targets snapshots the replicas of shard si that should receive the
// next write: the live set — or, when every replica is down, all of
// them. The desperation fan doubles as an inline probe, so a shard
// whose replicas all crashed re-adopts the first one to come back on
// the very next write, without waiting out a probe interval.
func (rt *Router) targets(si int) []*replicaState {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	s := rt.shards[si]
	live := make([]*replicaState, 0, len(s.replicas))
	for _, rep := range s.replicas {
		if !rep.down {
			live = append(live, rep)
		}
	}
	if len(live) == 0 {
		return append(live, s.replicas...)
	}
	return live
}

// record applies one forward outcome to a replica's state. An epoch
// change on a successful ack is a restart observation: the replica came
// back as a new process (its recovered state replaces, never adds, on
// the read path — the coordinator's epoch machinery guarantees that;
// here it is counted so operators see the churn).
func (rt *Router) record(rep *replicaState, a ack, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err != nil {
		if !rep.down {
			rt.counters.Add("router.down_marks", 1)
		}
		rep.down = true
		rep.failures++
		rep.lastErr = err.Error()
		return
	}
	if rep.down {
		rt.counters.Add("router.readoptions", 1)
	}
	rep.down = false
	rep.lastErr = ""
	rep.n = a.n
	if a.hasEpoch {
		if rep.hasEpoch && rep.epoch != a.epoch {
			rep.restarts++
		}
		rep.epoch, rep.hasEpoch = a.epoch, true
	}
}

// forwardShard fans one sub-batch to shard si's replicas concurrently
// and returns whether the batch was acknowledged (>=1 replica accepted
// it). A replica whose retries are exhausted is marked down immediately
// — this is what makes the failover guarantee hold: a replica is either
// in the live set and receiving every acknowledged write, or down and
// receiving none, never silently skipping some.
func (rt *Router) forwardShard(ctx context.Context, si int, items []core.Item) bool {
	payload := stream.AppendRaw(make([]byte, 0, len(items)*8), items)
	targets := rt.targets(si)
	okc := make(chan bool, len(targets))
	for _, rep := range targets {
		go func(rep *replicaState) {
			a, err := rt.send(ctx, rep.url, payload)
			rt.record(rep, a, err)
			okc <- err == nil
		}(rep)
	}
	acked := false
	for range targets {
		if <-okc {
			acked = true
		}
	}
	if acked {
		rt.shards[si].routedC.Add(int64(len(items)))
		rt.counters.Add("router.routed_items", int64(len(items)))
	} else {
		rt.shards[si].shedC.Add(int64(len(items)))
		rt.counters.Add("router.shed_items", int64(len(items)))
	}
	return acked
}

// probeOne health-checks one replica via GET /stats. Success re-adopts
// a down replica (and refreshes n/epoch for a live one); failure marks
// it down. The epoch field in the stats body is the same process epoch
// the ingest ack header carries, so a restart observed only between
// writes is still counted.
func (rt *Router) probeOne(ctx context.Context, rep *replicaState) {
	ctx, cancel := context.WithTimeout(ctx, rt.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/stats", nil)
	if err != nil {
		rt.record(rep, ack{}, err)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.record(rep, ack{}, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		rt.record(rep, ack{}, &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(b))})
		return
	}
	// Decoding epoch straight into a uint64 keeps it exact; a float64
	// round-trip would corrupt nanosecond epochs (they exceed 2^53).
	var body struct {
		N     int64  `json:"n"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		rt.record(rep, ack{}, fmt.Errorf("bad stats body: %v", err))
		return
	}
	rt.record(rep, ack{n: body.N, epoch: body.Epoch, hasEpoch: true}, nil)
}

// Probe health-checks every replica concurrently: down replicas are
// re-adopted when they answer, live ones refresh their observed stream
// position and epoch. POST /probe triggers it on demand; Run does it on
// an interval.
func (rt *Router) Probe(ctx context.Context) {
	rt.mu.Lock()
	var reps []*replicaState
	for _, s := range rt.shards {
		reps = append(reps, s.replicas...)
	}
	rt.mu.Unlock()
	var wg sync.WaitGroup
	for _, rep := range reps {
		wg.Add(1)
		go func(rep *replicaState) {
			defer wg.Done()
			rt.probeOne(ctx, rep)
		}(rep)
	}
	wg.Wait()
}

// Run probes on the given interval until ctx is cancelled. An interval
// of 0 selects one second.
func (rt *Router) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.Probe(ctx)
		}
	}
}
