package main

// The shape wall of the observability surfaces: for every daemon
// configuration the benchmark and the docs rely on, the key paths of
// GET /v1/stats with their JSON types, and every /v1/metrics family
// with its type, HELP text and label keys, pinned by a golden file.
// Values are not pinned, only shapes, so a refactor of how the
// surfaces are assembled must leave the file unchanged.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"streamfreq"
	"streamfreq/internal/cluster"
	"streamfreq/internal/obs"
	"streamfreq/internal/router"
	"streamfreq/internal/serve"
	"streamfreq/internal/tenant"
	"streamfreq/internal/testutil"
)

// surfaceShape is one configuration's entry in the golden file.
type surfaceShape struct {
	Config  string
	Stats   []string // "path type", arrays by element as path[]
	Metrics []string // "name type labels=k1,k2 help"
}

// jsonPaths records the JSON type of every key path under v.
func jsonPaths(path string, v any, out map[string]bool) {
	var typ string
	switch v := v.(type) {
	case map[string]any:
		typ = "object"
		for k, x := range v {
			sub := k
			if path != "" {
				sub = path + "." + k
			}
			jsonPaths(sub, x, out)
		}
	case []any:
		typ = "array"
		for _, x := range v {
			jsonPaths(path+"[]", x, out)
		}
	case string:
		typ = "string"
	case float64:
		typ = "number"
	case bool:
		typ = "bool"
	case nil:
		typ = "null"
	}
	if path != "" {
		out[path+" "+typ] = true
	}
}

// shapeOf reads one daemon's /v1/stats and /v1/metrics shapes.
func shapeOf(t *testing.T, config, base string) surfaceShape {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(get(t, base+"/v1/stats"), &doc); err != nil {
		t.Fatal(err)
	}
	paths := make(map[string]bool)
	jsonPaths("", doc, paths)
	sh := surfaceShape{Config: config}
	for p := range paths {
		sh.Stats = append(sh.Stats, p)
	}
	sort.Strings(sh.Stats)

	fams, err := obs.ParseExposition(strings.NewReader(string(get(t, base+"/v1/metrics"))))
	if err != nil {
		t.Fatal(err)
	}
	for name, fam := range fams {
		keys := make(map[string]bool)
		for _, s := range fam.Series {
			for k := range s.Labels {
				keys[k] = true
			}
		}
		var ks []string
		for k := range keys {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		sh.Metrics = append(sh.Metrics, fmt.Sprintf("%s %s labels=%s %s", name, fam.Type, strings.Join(ks, ","), fam.Help))
	}
	sort.Strings(sh.Metrics)
	return sh
}

// send issues one request and drains the answer; the status is not the
// point (a tenant node answers /refresh with 501), the traffic is.
func send(t *testing.T, method, url, contentType, body string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// nodeTraffic is the same request mix for every freqd configuration,
// so every route's series and every counter key the mix touches exist.
func nodeTraffic(t *testing.T, base string, tenants, durable bool) {
	send(t, "POST", base+"/v1/ingest", "text/plain", "a b a c a b a")
	send(t, "POST", base+"/v1/refresh", "", "")
	send(t, "GET", base+"/v1/topk?phi=0.1", "", "")
	send(t, "GET", base+"/v1/estimate?token=a", "", "")
	send(t, "GET", base+"/v1/summary", "", "")
	if tenants {
		send(t, "POST", base+"/v1/t/demo/ingest", "text/plain", "x y x")
		send(t, "GET", base+"/v1/t/demo/topk?phi=0.1", "", "")
		send(t, "GET", base+"/v1/t/demo/stats", "", "")
		send(t, "GET", base+"/v1/tenants", "", "")
	}
	if durable {
		send(t, "POST", base+"/v1/checkpoint", "", "")
	}
}

// startNode serves one freqd configuration on loopback with a fresh
// registry, as main does.
func startNode(t *testing.T, n node, maxLag int64) *httptest.Server {
	t.Helper()
	target, store, err := n.build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(t, target, store) })
	table, _ := target.(*tenant.Table)
	srv := serve.NewServer(serve.Options{Target: target, Store: store, MaxLag: maxLag,
		Tenants: table, Obs: obs.Discard("freqd")})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestSurfaceShapesGolden(t *testing.T) {
	var got []surfaceShape
	for _, c := range []struct {
		name    string
		node    node
		maxLag  int64
		durable bool
	}{
		{name: "freqd one-shard SSH", node: node{}},
		{name: "freqd Pipelined(4) SSH", node: node{shards: 4}},
		{name: "freqd -window", node: node{window: 1000}},
		{name: "freqd -horizons", node: node{horizons: []time.Duration{time.Minute}}},
		{name: "freqd CMH", node: node{algo: "CMH"}},
		{name: "freqd tenants", node: node{tenants: true}},
		{name: "freqd durable one-shard -max-lag", node: node{dataDir: t.TempDir()}, maxLag: 1000, durable: true},
		{name: "freqd durable tenants", node: node{tenants: true, dataDir: t.TempDir()}, durable: true},
	} {
		ts := startNode(t, c.node, c.maxLag)
		nodeTraffic(t, ts.URL, c.node.tenants, c.durable)
		got = append(got, shapeOf(t, c.name, ts.URL))
	}

	coordTraffic := func(t *testing.T, name string, opts cluster.Options) {
		opts.MergeEncoded = streamfreq.MergeEncoded
		opts.Obs = obs.Discard("freqmerge")
		coord, err := cluster.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		coord.PullAll(context.Background())
		ts := httptest.NewServer(coord.Handler())
		defer ts.Close()
		send(t, "POST", ts.URL+"/v1/refresh", "", "")
		send(t, "GET", ts.URL+"/v1/topk?phi=0.1", "", "")
		send(t, "GET", ts.URL+"/v1/estimate?token=a", "", "")
		send(t, "GET", ts.URL+"/v1/summary", "", "")
		send(t, "GET", ts.URL+"/v1/tenants", "", "")
		send(t, "GET", ts.URL+"/v1/t/demo/topk?phi=0.1", "", "")
		got = append(got, shapeOf(t, name, ts.URL))
	}

	plain := startNode(t, node{}, 0)
	nodeTraffic(t, plain.URL, false, false)
	coordTraffic(t, "freqmerge over a node", cluster.Options{Nodes: []string{plain.URL}})

	tenantNode := startNode(t, node{tenants: true}, 0)
	nodeTraffic(t, tenantNode.URL, true, false)
	coordTraffic(t, "freqmerge over a tenant node", cluster.Options{Nodes: []string{tenantNode.URL}})

	a, b := startNode(t, node{}, 0), startNode(t, node{}, 0)
	rt, err := router.New(router.Options{
		Shards: []router.ShardConfig{{ID: "a", Replicas: []string{a.URL}}, {ID: "b", Replicas: []string{b.URL}}},
		Obs:    obs.Discard("freqrouter"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(rt.Handler())
	defer rs.Close()
	send(t, "POST", rs.URL+"/v1/ingest", "text/plain", "a b a c a b a")
	send(t, "GET", rs.URL+"/v1/shardmap", "", "")
	send(t, "POST", rs.URL+"/v1/probe", "", "")
	m, err := router.FetchShardMap(context.Background(), nil, rs.URL)
	if err != nil {
		t.Fatal(err)
	}
	coordTraffic(t, "freqmerge over a router's shard map", cluster.Options{ShardMap: m})
	got = append(got, shapeOf(t, "freqrouter", rs.URL))

	testutil.CheckGolden(t, "testdata/surface_shapes_golden.json", got)
}
