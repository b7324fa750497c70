package router_test

// Router behaviour against real serve.Server replicas on loopback HTTP:
// replication (every replica of a shard holds the shard's full
// substream), partitioning (shards hold disjoint substreams that sum to
// the input), failover (a dead replica is marked down and skipped, a
// dead shard sheds only its own items), re-adoption via probe with
// epoch-based restart counting, and the ingest front's error contract.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamfreq"
	"streamfreq/internal/core"
	"streamfreq/internal/router"
	"streamfreq/internal/serve"
	"streamfreq/internal/stream"
	"streamfreq/internal/zipf"
)

// swappable lets a test replace the handler behind a fixed URL — the
// loopback stand-in for a replica process dying and coming back on the
// same host:port.
type swappable struct {
	h atomic.Pointer[http.Handler]
}

func (s *swappable) set(h http.Handler) { s.h.Store(&h) }

func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

func down() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "replica is down", http.StatusServiceUnavailable)
	})
}

// replica spins up one in-memory freqd behind a swappable handler.
func replica(t *testing.T, epoch uint64) (*httptest.Server, *swappable, *serve.Server) {
	t.Helper()
	target := core.NewConcurrent(streamfreq.MustNew("SSH", 0.001, 1)).ServeSnapshots(0)
	srv := serve.NewServer(serve.Options{Target: target, Algo: "SSH", Epoch: epoch})
	sw := &swappable{}
	sw.set(srv.Handler())
	return httptest.NewServer(sw), sw, srv
}

// tier builds a router over shards×replicas fresh in-memory freqds and
// returns the router, its HTTP server, and the per-[shard][replica]
// test handles.
func tier(t *testing.T, shards, reps int) (*router.Router, *httptest.Server, [][]*swappable, [][]*httptest.Server) {
	t.Helper()
	var cfgs []router.ShardConfig
	sws := make([][]*swappable, shards)
	tss := make([][]*httptest.Server, shards)
	epoch := uint64(100)
	for s := 0; s < shards; s++ {
		cfg := router.ShardConfig{ID: string(rune('a' + s))}
		for r := 0; r < reps; r++ {
			ts, sw, _ := replica(t, epoch)
			epoch++
			t.Cleanup(ts.Close)
			cfg.Replicas = append(cfg.Replicas, ts.URL)
			sws[s] = append(sws[s], sw)
			tss[s] = append(tss[s], ts)
		}
		cfgs = append(cfgs, cfg)
	}
	rt, err := router.New(router.Options{
		Shards:  cfgs,
		Retries: 1,
		Backoff: time.Millisecond,
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(rt.Handler())
	t.Cleanup(rs.Close)
	return rt, rs, sws, tss
}

type ingestAck struct {
	Ingested int64 `json:"ingested"`
	Shed     int64 `json:"shed"`
	N        int64 `json:"n"`
}

func postItems(t *testing.T, url string, items []core.Item) (ingestAck, int) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "application/octet-stream",
		bytes.NewReader(stream.AppendRaw(nil, items)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack ingestAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatalf("decoding ingest ack: %v", err)
	}
	return ack, resp.StatusCode
}

func nodeN(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		N int64 `json:"n"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.N
}

// TestRouterReplicatesAndPartitions: every replica of a shard holds the
// shard's whole substream (replication), and the shards' substreams are
// disjoint and sum to the input (partitioning).
func TestRouterReplicatesAndPartitions(t *testing.T) {
	const total = 30_000
	rt, rs, _, tss := tier(t, 3, 2)
	items := zipf.Sequential(total)

	ack, code := postItems(t, rs.URL, items)
	if code != http.StatusOK || ack.Ingested != total || ack.Shed != 0 {
		t.Fatalf("ingest ack = %+v (HTTP %d), want %d acked, 0 shed", ack, code, total)
	}

	var sum int64
	for s := range tss {
		n0, n1 := nodeN(t, tss[s][0].URL), nodeN(t, tss[s][1].URL)
		if n0 != n1 {
			t.Fatalf("shard %d replicas diverge: %d vs %d items", s, n0, n1)
		}
		if n0 == 0 {
			t.Fatalf("shard %d received nothing: the ring starved an arc", s)
		}
		sum += n0
	}
	if sum != total {
		t.Fatalf("per-shard substreams sum to %d, want %d (lost or duplicated in the split)", sum, total)
	}

	// The shard map agrees with the replicas' own accounting.
	m := rt.ShardMap()
	for s, sh := range m.Shards {
		if sh.Degraded || sh.Shed != 0 {
			t.Fatalf("healthy shard %d reported degraded/shedding: %+v", s, sh)
		}
		if sh.Routed != nodeN(t, tss[s][0].URL) {
			t.Fatalf("shard %d routed=%d, replicas hold %d", s, sh.Routed, nodeN(t, tss[s][0].URL))
		}
	}
}

// TestRouterFailoverAndReadoption: a dead replica is marked down after
// its retries and the shard keeps acknowledging through the survivor; a
// probe re-adopts the recovered replica and counts its restart when it
// comes back under a new epoch.
func TestRouterFailoverAndReadoption(t *testing.T) {
	rt, rs, sws, tss := tier(t, 2, 2)

	ack, code := postItems(t, rs.URL, zipf.Sequential(4_000))
	if code != http.StatusOK || ack.Shed != 0 {
		t.Fatalf("healthy ingest: ack=%+v HTTP %d", ack, code)
	}

	// Kill shard 0's second replica. Writes must keep flowing: acked by
	// the survivor, the dead replica marked down.
	sws[0][1].set(down())
	ack, code = postItems(t, rs.URL, zipf.Sequential(4_000))
	if code != http.StatusOK || ack.Ingested != 4_000 || ack.Shed != 0 {
		t.Fatalf("ingest with one dead replica: ack=%+v HTTP %d, want all acked", ack, code)
	}
	m := rt.ShardMap()
	if m.Shards[0].Degraded {
		t.Fatal("shard 0 degraded with a live survivor")
	}
	if rep := m.Shards[0].Replicas[1]; rep.Healthy || rep.Failures == 0 || rep.Error == "" {
		t.Fatalf("dead replica not marked down: %+v", rep)
	}
	if rep := m.Shards[0].Replicas[0]; !rep.Healthy {
		t.Fatalf("survivor marked down: %+v", rep)
	}

	// A down replica is skipped, not retried per write: further ingest
	// must not grow its failure count.
	failures := m.Shards[0].Replicas[1].Failures
	_, _ = postItems(t, rs.URL, zipf.Sequential(1_000))
	if got := rt.ShardMap().Shards[0].Replicas[1].Failures; got != failures {
		t.Fatalf("down replica still being dialed: failures %d -> %d", failures, got)
	}

	// The replica comes back as a new process (fresh summary, new
	// epoch) on the same URL. A probe re-adopts it and, because the
	// epoch changed, counts exactly one restart.
	_, _, srv := replica(t, 999)
	sws[0][1].set(srv.Handler())
	rt.Probe(context.Background())
	rep := rt.ShardMap().Shards[0].Replicas[1]
	if !rep.Healthy || rep.Epoch != 999 || rep.Restarts != 1 {
		t.Fatalf("after probe: %+v, want healthy epoch=999 restarts=1", rep)
	}

	// Re-adopted means written to again.
	before := nodeN(t, tss[0][1].URL)
	_ = before // the recovered replica is empty; any growth proves writes resumed
	_, _ = postItems(t, rs.URL, zipf.Sequential(4_000))
	if after := nodeN(t, tss[0][1].URL); after <= before {
		t.Fatalf("recovered replica received no writes (n %d -> %d)", before, after)
	}
}

// TestRouterShedsOnlyTheDegradedShard: with every replica of one shard
// down, that shard's items are shed (503, counted) while other shards'
// items are still acknowledged — and the next write re-adopts the shard
// the moment a replica returns (the desperation fan doubles as probe).
func TestRouterShedsOnlyTheDegradedShard(t *testing.T) {
	rt, rs, sws, _ := tier(t, 2, 2)
	items := zipf.Sequential(6_000)

	// Split the stream the way the router will, so the expectation is
	// exact: shard 1's items shed, shard 0's acked.
	perShard := make([][]core.Item, 2)
	rt.Ring().Split(items, perShard)

	sws[1][0].set(down())
	sws[1][1].set(down())
	ack, code := postItems(t, rs.URL, items)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("ingest with a degraded shard: HTTP %d, want 503", code)
	}
	if ack.Ingested != int64(len(perShard[0])) || ack.Shed != int64(len(perShard[1])) {
		t.Fatalf("ack=%+v, want ingested=%d shed=%d", ack, len(perShard[0]), len(perShard[1]))
	}
	m := rt.ShardMap()
	if !m.Shards[1].Degraded || m.Shards[1].Shed != int64(len(perShard[1])) {
		t.Fatalf("degraded shard status: %+v", m.Shards[1])
	}
	if m.Shards[0].Degraded || m.Shards[0].Shed != 0 {
		t.Fatalf("healthy shard status: %+v", m.Shards[0])
	}

	// One replica of the dead shard returns. No probe: the next write's
	// desperation fan must find it and stop shedding.
	_, _, srv := replica(t, 777)
	sws[1][0].set(srv.Handler())
	ack, code = postItems(t, rs.URL, items)
	if code != http.StatusOK || ack.Shed != 0 {
		t.Fatalf("ingest after one replica returned: ack=%+v HTTP %d, want fully acked", ack, code)
	}
}

// TestRouterIngestErrors: the ingest front fails the same way a node
// does — 415 for an unknown Content-Type, 400 for a torn binary body,
// and nothing is forwarded from the malformed part.
func TestRouterIngestErrors(t *testing.T) {
	_, rs, _, _ := tier(t, 2, 1)

	resp, err := http.Post(rs.URL+"/ingest", "application/weird", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("unknown media type: HTTP %d, want 415", resp.StatusCode)
	}

	// 17 bytes: two whole items and a torn third.
	torn := append(stream.AppendRaw(nil, []core.Item{1, 2}), 0xFF)
	resp, err = http.Post(rs.URL+"/ingest", "application/octet-stream", bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn body: HTTP %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestShardMapRingRoundTrip: a coordinator that rebuilds the ring from
// the published shard map routes every item exactly like the router —
// the property partition-exact reads depend on.
func TestShardMapRingRoundTrip(t *testing.T) {
	rt, rs, _, _ := tier(t, 4, 1)
	m, err := router.FetchShardMap(context.Background(), nil, rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := m.Ring()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range zipf.Sequential(10_000) {
		if got, want := ring.Shard(it), rt.Ring().Shard(it); got != want {
			t.Fatalf("item %d: rebuilt ring routes to %d, router to %d", it, got, want)
		}
	}
}

// TestRouterConcurrentIngest: writers posting through one router at
// once, each request decoding and splitting in several rounds, land
// every item on the shard that owns it exactly as often as it was sent
// — no request sees another's batch buffers.
func TestRouterConcurrentIngest(t *testing.T) {
	var cfgs []router.ShardConfig
	var targets []core.Summary
	for _, id := range []string{"a", "b"} {
		target := core.NewConcurrent(streamfreq.MustNew("SSH", 0.001, 1))
		ts := httptest.NewServer(serve.NewServer(serve.Options{Target: target}).Handler())
		t.Cleanup(ts.Close)
		cfgs = append(cfgs, router.ShardConfig{ID: id, Replicas: []string{ts.URL}})
		targets = append(targets, target)
	}
	rt, err := router.New(router.Options{Shards: cfgs, IngestBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(rt.Handler())
	t.Cleanup(rs.Close)

	// 8 writers × 100 distinct items, under k = 1,001, so every count
	// the shards hold is exact.
	const writers, posts, repeat = 8, 20, 5
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			items := make([]core.Item, 100*repeat)
			for i := range items {
				items[i] = core.Item(w*1000 + i%100)
			}
			body := stream.AppendRaw(nil, items)
			for range posts {
				resp, err := http.Post(rs.URL+"/ingest", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := range writers {
		for j := range 100 {
			x := core.Item(w*1000 + j)
			if got := targets[rt.Ring().Shard(x)].Estimate(x); got != posts*repeat {
				t.Fatalf("item %d: its shard counts %d, sent %d", x, got, posts*repeat)
			}
		}
	}
}
