package main

// Composition tests for freqd: -shards alone picks the ingest plane,
// every flag exclusion returns its error, and a sharded durable node
// recovers its stream position when restarted on the same data
// directory.

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/persist"
	"streamfreq/internal/serve"
	"streamfreq/internal/tenant"
)

// node is one freqd flag set, reduced to what buildTenantTable and
// buildTarget read; zero fields take freqd's defaults.
type node struct {
	algo     string
	phi      float64
	shards   int
	window   int
	horizons []time.Duration
	dataDir  string
	tenants  bool
}

// build composes the node the way main does: the tenant table first
// (when -tenants is set), then the serving target.
func (n node) build() (serve.Target, *persist.Store, error) {
	algo, phi, shards := n.algo, n.phi, n.shards
	if algo == "" {
		algo = "SSH"
	}
	if phi == 0 {
		phi = 0.01
	}
	if shards == 0 {
		shards = 1
	}
	var table *tenant.Table
	if n.tenants {
		var err error
		if table, err = buildTenantTable(algo, phi, shards, n.window, 4096, nil); err != nil {
			return nil, nil, err
		}
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	target, store, _, err := buildTarget(log, algo, phi, 1, shards, 0,
		n.window, 8, n.horizons, 8, n.dataDir, "always", 100*time.Millisecond, table)
	return target, store, err
}

// shutdown closes what build opened: the store, then the plane.
func shutdown(t *testing.T, target serve.Target, store *persist.Store) {
	t.Helper()
	if store != nil {
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if p, ok := target.(*core.Pipelined); ok {
		p.Close()
	}
}

func TestShardsPickThePlane(t *testing.T) {
	target, store, err := node{shards: 1}.build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := target.(*core.Concurrent); !ok {
		t.Errorf("-shards 1 built %T, want *core.Concurrent", target)
	}
	shutdown(t, target, store)

	target, store, err = node{shards: 4}.build()
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, target, store)
	p, ok := target.(*core.Pipelined)
	if !ok {
		t.Fatalf("-shards 4 built %T, want *core.Pipelined", target)
	}
	if got := p.PipelineStats().Shards; got != 4 {
		t.Errorf("-shards 4 built a plane of %d shards", got)
	}

	// Served, a -shards 1 node exposes its summary's own name and read
	// surfaces, and nothing of the staged plane.
	for _, c := range []struct {
		name    string
		node    node
		summary string
		reads   []string // routes that answer only through the summary's own surface
	}{
		{"SSH", node{}, "SSH", nil},
		{"CMH", node{algo: "CMH"}, "CMH", []string{"/v1/hhh?phi=0.1"}},
		{"window", node{window: 1000}, "SSW", nil},
		{"horizons", node{horizons: []time.Duration{time.Minute}}, "MR-SSH",
			[]string{"/v1/topk?phi=0.1&horizon=1m"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			target, store, err := c.node.build()
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown(t, target, store)
			ts := httptest.NewServer(serve.NewServer(serve.Options{Target: target}).Handler())
			defer ts.Close()
			resp, err := http.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader("a b a c a b a"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()

			var st map[string]any
			if err := json.Unmarshal(get(t, ts.URL+"/v1/stats"), &st); err != nil {
				t.Fatal(err)
			}
			if _, ok := st["pipeline"]; ok {
				t.Errorf("/v1/stats has a pipeline section")
			}
			if st["summary"] != c.summary {
				t.Errorf("/v1/stats summary %v, want %q", st["summary"], c.summary)
			}
			if _, ok := st["window"]; ok != (c.node.window > 0) {
				t.Errorf("/v1/stats window section present=%v, want %v", ok, c.node.window > 0)
			}
			if m := get(t, ts.URL+"/v1/metrics"); strings.Contains(string(m), "freq_pipeline_") {
				t.Errorf("/v1/metrics exposes freq_pipeline_ series")
			}
			for _, path := range c.reads {
				if body := get(t, ts.URL+path); !strings.Contains(string(body), `"count":4`) {
					t.Errorf("GET %s = %s, want a row counting the 4 a's", path, body)
				}
			}
		})
	}
}

// get fetches url and fails the test on a non-200 answer.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s %s", url, resp.Status, body)
	}
	return body
}

func TestFlagExclusions(t *testing.T) {
	minute := []time.Duration{time.Minute}
	cases := []struct {
		name string
		node node
		want string
	}{
		{"tenants+algo", node{tenants: true, algo: "CM"}, "-tenants serves slab-backed Space-Saving"},
		{"tenants+window", node{tenants: true, window: 1000}, "-tenants and -window are incompatible"},
		{"tenants+shards", node{tenants: true, shards: 4}, "-tenants is namespace-keyed"},
		{"horizons+data-dir", node{horizons: minute, dataDir: t.TempDir()}, "-horizons is memory-only"},
		{"horizons+window", node{horizons: minute, window: 1000}, "-horizons and -window are different recency models"},
		{"horizons+tenants", node{horizons: minute, tenants: true}, "-horizons and -tenants are incompatible"},
		{"horizons+shards", node{horizons: minute, shards: 4}, "-horizons is single-shard"},
		{"window+algo", node{window: 1000, algo: "CM"}, "-window serves block-decomposed Space-Saving"},
		{"window+shards", node{window: 1000, shards: 4}, "-window is single-shard"},
		// A budget of 5,000,001 counters, past what the checkpoint
		// decoders accept: refused at startup, not at recovery.
		{"phi-over-budget", node{phi: 2e-7, dataDir: t.TempDir()}, "needs more than"},
		{"phi-over-budget+tenants", node{phi: 2e-7, tenants: true, dataDir: t.TempDir()}, "needs more than"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			target, store, err := c.node.build()
			if err == nil {
				shutdown(t, target, store)
				t.Fatalf("built %T, want error %q", target, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want it to contain %q", err, c.want)
			}
		})
	}
}

func TestShardedNodeRestartRecoversPosition(t *testing.T) {
	n := node{shards: 4, dataDir: t.TempDir()}
	target, store, err := n.build()
	if err != nil {
		t.Fatal(err)
	}
	items := make([]core.Item, 5000)
	for i := range items {
		items[i] = core.Item(i % 97)
	}
	target.UpdateBatch(items[:3000])
	if _, err := store.Checkpoint(target.(persist.Target)); err != nil {
		t.Fatal(err)
	}
	target.UpdateBatch(items[3000:])
	want := target.(persist.Target).LiveN()
	shutdown(t, target, store)

	target, store, err = n.build()
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, target, store)
	if _, ok := target.(*core.Pipelined); !ok {
		t.Fatalf("restart built %T, want *core.Pipelined", target)
	}
	if got := target.(persist.Target).LiveN(); got != want || got != int64(len(items)) {
		t.Fatalf("restarted LiveN = %d, want %d (ingested %d)", got, want, len(items))
	}
}
