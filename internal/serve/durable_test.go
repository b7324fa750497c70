package serve_test

// End-to-end durability: freqd's wiring of the persistence layer, over
// a real HTTP loopback. The restart-under-traffic scenario — ingest
// over the wire, checkpoint mid-stream, kill without warning, restart,
// and serve /topk answers scored against exact truth at the φn
// operating point — plus the clean-shutdown contract (a final
// checkpoint means the next start replays zero WAL records) and the
// write-refusal contract once the log has failed.

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"streamfreq"
	"streamfreq/internal/core"
	"streamfreq/internal/exact"
	"streamfreq/internal/metrics"
	"streamfreq/internal/persist"
	"streamfreq/internal/serve"
	"streamfreq/internal/stream"
	"streamfreq/internal/tenant"
	"streamfreq/internal/zipf"
)

// buildDurable performs freqd's startup sequence over dir: construct
// the wrapper, recover, wire the WAL, enable snapshot serving.
func buildDurable(t *testing.T, dir, algo string, phi float64) (*core.Concurrent, *persist.Store, persist.RecoveryStats) {
	t.Helper()
	target := core.NewConcurrent(streamfreq.MustNew(algo, phi, 1))
	store, err := persist.Open(persist.Options{
		Dir:    dir,
		Algo:   algo,
		Fsync:  persist.FsyncAlways, // every acknowledged wire write is durable
		Decode: streamfreq.Decode,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := store.Recover(target)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	target.PersistTo(store)
	target.ServeSnapshots(5 * time.Millisecond)
	return target, store, stats
}

// ingestRoutes are the two routes the one ingest loop serves: the
// global route of a Concurrent node and a namespace's route on a
// tenant-mode node.
var ingestRoutes = []struct {
	name    string
	prefix  string // path prefix of the route's ingest and topk
	tenants bool
}{
	{"global", "", false},
	{"tenant", "/v1/t/eu", true},
}

// durableNode is freqd's startup sequence over dir for one ingest
// route: an SSH Concurrent (snapshot-served, always fresh) or a tenant
// table, recovered from dir and wired to the returned store.
func durableNode(t *testing.T, dir string, tenants bool, fsync persist.FsyncPolicy) (serve.Options, persist.Target, *persist.Store) {
	t.Helper()
	store, err := persist.Open(persist.Options{Dir: dir, Algo: "SSH", Fsync: fsync, Decode: streamfreq.Decode})
	if err != nil {
		t.Fatal(err)
	}
	var target persist.Target = core.NewConcurrent(streamfreq.MustNew("SSH", 0.01, 1))
	opts := serve.Options{Algo: "SSH", Store: store}
	if tenants {
		table, err := tenant.NewTable(tenant.Options{DefaultPhi: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		target, opts.Tenants = table, table
	}
	if _, err := store.Recover(target); err != nil {
		t.Fatal(err)
	}
	target.PersistTo(store)
	if c, ok := target.(*core.Concurrent); ok {
		c.ServeSnapshots(0)
	}
	opts.Target = target
	return opts, target, store
}

type statsResponse struct {
	N   int64 `json:"n"`
	WAL struct {
		Segments        int    `json:"segments"`
		EndN            int64  `json:"end_n"`
		DurableN        int64  `json:"durable_n"`
		AppendedRecords int64  `json:"appended_records"`
		Error           string `json:"error"`
	} `json:"wal"`
	Checkpoint struct {
		Count       int64 `json:"count"`
		LastN       int64 `json:"last_n"`
		RecoveredN  int64 `json:"recovered_n"`
		Replayed    int   `json:"replayed"`
		CheckpointN int64 `json:"checkpoint_n"`
	} `json:"checkpoint"`
}

func TestFreqdDurableRestart(t *testing.T) {
	const (
		phi     = 0.001
		streamN = 120_000
	)
	dir := t.TempDir()
	g, err := zipf.NewGenerator(1<<15, 1.1, 0xFACE, true)
	if err != nil {
		t.Fatal(err)
	}
	items := g.Stream(streamN)

	// First life: ingest over the wire with a checkpoint partway.
	target, store, _ := buildDurable(t, dir, "SSH", phi)
	srv := serve.NewServer(serve.Options{Target: target, Algo: "SSH", Store: store})
	ts := httptest.NewServer(srv.Handler())
	const chunks = 8
	share := (len(items) + chunks - 1) / chunks
	for c := 0; c < chunks; c++ {
		lo, hi := c*share, min((c+1)*share, len(items))
		postOK(t, ts.URL+"/ingest", "application/octet-stream", stream.AppendRaw(nil, items[lo:hi]))
		if c == chunks/2-1 {
			postOK(t, ts.URL+"/checkpoint", "application/json", nil)
		}
	}
	var st1 statsResponse
	getJSON(t, ts.URL+"/stats", &st1)
	if st1.WAL.EndN != streamN || st1.WAL.DurableN != streamN {
		t.Fatalf("/stats wal = %+v, want end_n=durable_n=%d", st1.WAL, streamN)
	}
	if st1.Checkpoint.Count != 1 || st1.Checkpoint.LastN == 0 {
		t.Fatalf("/stats checkpoint = %+v, want one checkpoint", st1.Checkpoint)
	}
	ts.Close()
	// Kill -9: the store is abandoned — no Close, no final checkpoint.

	// Second life: recover and serve.
	target2, store2, rstats := buildDurable(t, dir, "SSH", phi)
	defer store2.Close()
	if rstats.RecoveredN != streamN {
		t.Fatalf("recovered n=%d, want %d (checkpoint %d + %d records)",
			rstats.RecoveredN, streamN, rstats.CheckpointN, rstats.ReplayedRecords)
	}
	if rstats.CheckpointN == 0 || rstats.ReplayedRecords == 0 {
		t.Fatalf("recovery did not exercise both paths: %+v", rstats)
	}
	srv2 := serve.NewServer(serve.Options{Target: target2, Algo: "SSH", Store: store2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	// /topk from the recovered summary must have perfect recall at φn
	// against exact truth over the full (fully durable) stream.
	postOK(t, ts2.URL+"/refresh", "application/json", nil)
	var tr topkResponse
	getJSON(t, ts2.URL+fmt.Sprintf("/topk?phi=%g", phi), &tr)
	if tr.N != streamN {
		t.Fatalf("/topk after restart: n=%d, want %d", tr.N, streamN)
	}
	truth := exact.New()
	for _, it := range items {
		truth.Update(it, 1)
	}
	threshold := int64(phi * float64(streamN))
	truthMap := metrics.TruthMap(truth.TopK(truth.Distinct()), threshold)
	report := make([]core.ItemCount, len(tr.Items))
	for i, it := range tr.Items {
		report[i] = core.ItemCount{Item: core.Item(it.Item), Count: it.Count}
	}
	if acc := metrics.Evaluate(report, truthMap); acc.Recall != 1 {
		t.Fatalf("recall at φn after restart = %v, want perfect: %s", acc.Recall, acc)
	}

	// The restart is also visible in /stats: recovery fields populated.
	var st2 statsResponse
	getJSON(t, ts2.URL+"/stats", &st2)
	if st2.Checkpoint.RecoveredN != streamN || st2.Checkpoint.Replayed == 0 {
		t.Fatalf("/stats after restart = %+v, want recovered_n=%d with replayed records", st2.Checkpoint, streamN)
	}
}

// TestFreqdCleanShutdownReplaysZero pins the graceful-shutdown
// contract: a final checkpoint plus a sealed log (exactly what
// cmd/freqd does on SIGTERM) leaves zero records to replay.
func TestFreqdCleanShutdownReplaysZero(t *testing.T) {
	dir := t.TempDir()
	target, store, _ := buildDurable(t, dir, "SSH", 0.005)
	srv := serve.NewServer(serve.Options{Target: target, Algo: "SSH", Store: store})
	ts := httptest.NewServer(srv.Handler())
	g, err := zipf.NewGenerator(1<<12, 1.2, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	items := g.Stream(30_000)
	postOK(t, ts.URL+"/ingest", "application/octet-stream", stream.AppendRaw(nil, items))
	ts.Close()

	// freqd's shutdown sequence.
	if _, err := store.Checkpoint(target); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, store2, rstats := buildDurable(t, dir, "SSH", 0.005)
	defer store2.Close()
	if rstats.ReplayedRecords != 0 || rstats.TruncatedBytes != 0 {
		t.Fatalf("clean restart replayed %d records, truncated %d bytes; want 0/0",
			rstats.ReplayedRecords, rstats.TruncatedBytes)
	}
	if rstats.RecoveredN != int64(len(items)) {
		t.Fatalf("clean restart recovered n=%d, want %d", rstats.RecoveredN, len(items))
	}
}

// TestIngestAckCountsRecoveredItems: a restarted durable node acks an
// ingest with its live stream position, recovered items included — the
// n /v1/stats reports — not with the items this process has ingested.
func TestIngestAckCountsRecoveredItems(t *testing.T) {
	dir := t.TempDir()
	items := make([]core.Item, 1010)
	for i := range items {
		items[i] = core.Item(i % 37)
	}

	// First life: 1000 items over the wire, then kill -9.
	target, store, _ := buildDurable(t, dir, "SSH", 0.01)
	srv := serve.NewServer(serve.Options{Target: target, Algo: "SSH", Store: store})
	ts := httptest.NewServer(srv.Handler())
	postOK(t, ts.URL+"/v1/ingest", "application/octet-stream", stream.AppendRaw(nil, items[:1000]))
	ts.Close()

	target2, store2, rstats := buildDurable(t, dir, "SSH", 0.01)
	defer store2.Close()
	srv2 := serve.NewServer(serve.Options{Target: target2, Algo: "SSH", Store: store2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp := post(t, ts2.URL+"/v1/ingest", "application/octet-stream", stream.AppendRaw(nil, items[1000:]))
	defer resp.Body.Close()
	var ack struct {
		Ingested int64 `json:"ingested"`
		N        int64 `json:"n"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	getJSON(t, ts2.URL+"/v1/stats", &st)
	if rstats.RecoveredN != 1000 || ack.Ingested != 10 {
		t.Fatalf("recovered %d items and ingested %d, want 1000 and 10", rstats.RecoveredN, ack.Ingested)
	}
	if want := rstats.RecoveredN + ack.Ingested; ack.N != want || st.N != want {
		t.Fatalf("ack n=%d, /v1/stats n=%d, want both %d (recovered + ingested)", ack.N, st.N, want)
	}
}

// TestCheckpointEndpointWithoutStore: /checkpoint on an in-memory-only
// server is 501, not a crash.
func TestCheckpointEndpointWithoutStore(t *testing.T) {
	target := core.NewConcurrent(streamfreq.MustNew("SSH", 0.01, 1)).ServeSnapshots(0)
	srv := serve.NewServer(serve.Options{Target: target})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := post(t, ts.URL+"/checkpoint", "application/json", nil)
	defer resp.Body.Close()
	if resp.StatusCode != 501 {
		t.Fatalf("POST /checkpoint without a store: %s, want 501", resp.Status)
	}
}

// TestIngestRefusedAfterWALFailure: once the log has latched a failure,
// the server stops acknowledging writes (503) while reads keep working,
// on the global and the tenant ingest route alike.
func TestIngestRefusedAfterWALFailure(t *testing.T) {
	for _, route := range ingestRoutes {
		t.Run(route.name, func(t *testing.T) {
			opts, _, store := durableNode(t, t.TempDir(), route.tenants, persist.FsyncAlways)
			ts := httptest.NewServer(serve.NewServer(opts).Handler())
			defer ts.Close()

			ingest := ts.URL + route.prefix + "/ingest"
			postOK(t, ingest, "application/octet-stream", stream.AppendRaw(nil, []core.Item{1, 2, 3}))
			// Seal the log out from under the server: the next append
			// latches the failure, and every ingest after that is refused.
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			resp := post(t, ingest, "application/octet-stream", stream.AppendRaw(nil, []core.Item{4}))
			resp.Body.Close()
			resp = post(t, ingest, "application/octet-stream", stream.AppendRaw(nil, []core.Item{5}))
			defer resp.Body.Close()
			if resp.StatusCode != 503 {
				t.Fatalf("ingest after WAL failure: %s, want 503", resp.Status)
			}
			var tr topkResponse
			getJSON(t, ts.URL+route.prefix+"/topk?threshold=1", &tr) // reads still served
			var st statsResponse
			getJSON(t, ts.URL+"/stats", &st)
			if st.WAL.Error == "" {
				t.Fatal("/stats wal.error empty after WAL failure")
			}
		})
	}
}
