package apitest_test

// The README's /v1 API-reference table is executable documentation:
// this test parses the markdown table and diffs it, in both
// directions, against the routes the three daemons actually register
// (serve.API.Routes(), the canonical /v1 patterns — legacy aliases are
// compatibility shims, deliberately outside the table's contract).
// Adding a route without documenting it, or documenting one that does
// not exist, fails the build.

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamfreq"
	"streamfreq/internal/cluster"
	"streamfreq/internal/router"
	"streamfreq/internal/serve"
)

// parseReadmeTable extracts the /v1 API table: daemon → "METHOD
// /v1/pattern" → documented. A cell counts as "served" unless it is the
// em-dash — qualifiers like "`-tenants`" or "501 by design" still mean
// the route is registered.
func parseReadmeTable(t *testing.T) map[string]map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, found := strings.Cut(string(raw), "### The /v1 API")
	if !found {
		t.Fatal("README.md has no '### The /v1 API' section")
	}
	daemons := []string{"freqd", "freqmerge", "freqrouter"}
	out := make(map[string]map[string]bool, len(daemons))
	for _, d := range daemons {
		out[d] = make(map[string]bool)
	}
	rows := 0
	for _, line := range strings.Split(rest, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "## ") {
			break // next chapter — later tables (flags, query surface) are not route rows
		}
		if !strings.HasPrefix(line, "| `") {
			continue // header, separator, prose
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) < 5 {
			t.Fatalf("README API table row has %d cells: %q", len(cells), line)
		}
		// The route cell may list several backticked paths (the healthz
		// row); the canonical /v1 one is the mux pattern.
		var pattern string
		for _, tok := range strings.Split(cells[0], "`") {
			if strings.HasPrefix(tok, "/v1") {
				pattern = tok
			}
		}
		if pattern == "" {
			t.Fatalf("README API table row without a /v1 path: %q", line)
		}
		method := strings.TrimSpace(cells[1])
		rows++
		for i, d := range daemons {
			if strings.TrimSpace(cells[2+i]) != "—" {
				out[d][method+" "+pattern] = true
			}
		}
	}
	if rows < 10 {
		t.Fatalf("parsed only %d rows from the README API table — parser or table broken", rows)
	}
	return out
}

// routeSet flattens a live mux's route table to the README's key shape.
func routeSet(routes []serve.RouteInfo) map[string]bool {
	out := make(map[string]bool, len(routes))
	for _, rt := range routes {
		for _, m := range strings.Split(rt.Methods, ",") {
			out[m+" "+rt.Pattern] = true
		}
	}
	return out
}

func TestReadmeAPITableMatchesMux(t *testing.T) {
	documented := parseReadmeTable(t)

	// Each daemon at its maximal surface, built the way its command
	// builds it: freqd with tenancy enabled (tenant routes ride the same
	// mux), freqmerge over that node on loopback, and the router over one
	// replica.
	table := newDemoTable(t)
	freqd := serve.NewServer(serve.Options{Target: table, Algo: "SSH", Tenants: table})

	node := httptest.NewServer(freqd.Handler())
	defer node.Close()
	coord, err := cluster.New(cluster.Options{
		Nodes:        []string{node.URL},
		MergeEncoded: streamfreq.MergeEncoded,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.PullAll(context.Background())

	rt, err := router.New(router.Options{
		Shards: []router.ShardConfig{{ID: "s0", Replicas: []string{node.URL}}},
	})
	if err != nil {
		t.Fatal(err)
	}

	live := map[string]map[string]bool{
		"freqd":      routeSet(freqd.API().Routes()),
		"freqmerge":  routeSet(coord.API().Routes()),
		"freqrouter": routeSet(rt.API().Routes()),
	}

	for daemon, mux := range live {
		docs := documented[daemon]
		for key := range mux {
			if !docs[key] {
				t.Errorf("%s: %s is registered on the mux but missing from the README API table", daemon, key)
			}
		}
		for key := range docs {
			if !mux[key] {
				t.Errorf("%s: the README API table lists %s but the mux does not register it", daemon, key)
			}
		}
	}
}
