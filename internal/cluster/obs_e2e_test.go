package cluster_test

// One trace ID through the whole plane: a client posts to the router
// with an X-Freq-Trace header, the router's request log carries it,
// the forward to the shard replica propagates it, and the replica's
// slow-query log line carries the same ID with per-stage timings. The
// pull path gets the same treatment: a coordinator round seeded with a
// trace shows up in the node's /v1/summary request log. This is the
// "grep one ID across every daemon's logs" contract, asserted on
// loopback HTTP with JSON logs captured in-process.

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"streamfreq"
	"streamfreq/internal/cluster"
	"streamfreq/internal/core"
	"streamfreq/internal/obs"
	"streamfreq/internal/router"
	"streamfreq/internal/serve"
	"streamfreq/internal/stream"
	"streamfreq/internal/zipf"
)

// logBuffer collects a daemon's JSON log output safely across handler
// goroutines.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// lines decodes every JSON log line written so far.
func (b *logBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	raw := b.buf.String()
	b.mu.Unlock()
	var out []map[string]any
	for _, ln := range strings.Split(raw, "\n") {
		if strings.TrimSpace(ln) == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", ln, err)
		}
		out = append(out, m)
	}
	return out
}

// findLine returns the first log line matching every key=value pair.
func findLine(lines []map[string]any, want map[string]any) map[string]any {
	for _, ln := range lines {
		ok := true
		for k, v := range want {
			if ln[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return ln
		}
	}
	return nil
}

func jsonObs(t *testing.T, service string, buf *logBuffer, slow time.Duration) *obs.Obs {
	t.Helper()
	o, err := obs.New(obs.Options{
		Service:   service,
		LogFormat: "json",
		LogWriter: buf,
		LogLevel:  slog.LevelDebug,
		SlowQuery: slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestTraceEndToEnd(t *testing.T) {
	g, err := zipf.NewGenerator(1<<12, 1.1, 42, true)
	if err != nil {
		t.Fatal(err)
	}
	items := g.Stream(5_000)

	// One shard, one replica, every daemon logging JSON to its own
	// buffer. The replica's slow-query threshold is 1ns so every request
	// is "slow" and logs its per-stage timings.
	var nodeLog, routerLog, coordLog logBuffer
	nodeObs := jsonObs(t, "freqd", &nodeLog, time.Nanosecond)
	target := core.NewConcurrent(streamfreq.MustNew("SSH", 0.01, 1)).ServeSnapshots(0)
	srv := serve.NewServer(serve.Options{Target: target, Algo: "SSH", Epoch: 3, Obs: nodeObs})
	ns := httptest.NewServer(srv.Handler())
	defer ns.Close()

	rt, err := router.New(router.Options{
		Shards: []router.ShardConfig{{ID: "shard-0", Replicas: []string{ns.URL}}},
		Obs:    jsonObs(t, "freqrouter", &routerLog, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(rt.Handler())
	defer rs.Close()

	// The client names the trace; the router must echo it on the
	// response and stamp it on the forward.
	const tid = "00f0e1d2c3b4a596"
	req, err := http.NewRequest(http.MethodPost, rs.URL+"/ingest",
		bytes.NewReader(stream.AppendRaw(nil, items)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(obs.TraceHeader, tid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != tid {
		t.Fatalf("response %s = %q, want the caller's %q", obs.TraceHeader, got, tid)
	}

	// The router's request log carries the caller's trace ID...
	rline := findLine(routerLog.lines(t), map[string]any{
		"msg": "request", "route": "/v1/ingest", "trace": tid,
	})
	if rline == nil {
		t.Fatalf("router log has no /v1/ingest line with trace %s:\n%v", tid, routerLog.lines(t))
	}

	// ...and so does the replica's — the forward propagated the header,
	// and the 1ns slow-query threshold upgraded the line to a slow-
	// request warning with the apply stage timed.
	nline := findLine(nodeLog.lines(t), map[string]any{
		"msg": "slow request", "route": "/v1/ingest", "trace": tid,
	})
	if nline == nil {
		t.Fatalf("node log has no slow /v1/ingest line with trace %s:\n%v", tid, nodeLog.lines(t))
	}
	if _, ok := nline["stage_apply"]; !ok {
		t.Errorf("slow-request line lacks the stage_apply timing: %v", nline)
	}
	if nline["level"] != "WARN" {
		t.Errorf("slow-request line level = %v, want WARN", nline["level"])
	}

	// Pull-path propagation: a coordinator round seeded with a trace
	// shows the same ID in the node's /v1/summary request log.
	coord, err := cluster.New(cluster.Options{
		Nodes:        []string{ns.URL},
		MergeEncoded: streamfreq.MergeEncoded,
		Obs:          jsonObs(t, "freqmerge", &coordLog, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	const pullTID = "feedc0de00112233"
	coord.PullAll(obs.WithTrace(context.Background(), pullTID))
	if findLine(nodeLog.lines(t), map[string]any{
		"msg": "slow request", "route": "/v1/summary", "trace": pullTID,
	}) == nil {
		t.Fatalf("node log has no /v1/summary line with the coordinator's trace %s:\n%v",
			pullTID, nodeLog.lines(t))
	}
}

// TestTenantPullFailureLogged: a failed pull of a tenant-mode node logs
// "pull failed" with the round's trace ID, like any other node.
func TestTenantPullFailureLogged(t *testing.T) {
	ts, sw, _ := tenantNode(t, 1)
	defer ts.Close()
	ingest(t, ts.URL+"/v1/t/eu", zipf.Sequential(100))

	var coordLog logBuffer
	c := tenantCoordinator(t, 0, jsonObs(t, "freqmerge", &coordLog, 0), ts.URL)
	c.PullAll(context.Background())
	sw.set(down())
	const tid = "0badc0de0badc0de"
	c.PullAll(obs.WithTrace(context.Background(), tid))
	if findLine(coordLog.lines(t), map[string]any{
		"msg": "pull failed", "trace": tid, "node": ts.URL,
	}) == nil {
		t.Fatalf("coordinator log has no \"pull failed\" line for %s with trace %s:\n%v",
			ts.URL, tid, coordLog.lines(t))
	}
}
