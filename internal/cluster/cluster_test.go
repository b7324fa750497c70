package cluster_test

// Coordinator behaviour against real serve.Server nodes on loopback
// HTTP: merge correctness over disjoint partitions, stale serving when
// a node is unreachable, mixed-algorithm rejection, and the empty
// before-first-pull state. The kill/recover epoch semantics get their
// own file (e2e_test.go).

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamfreq"
	"streamfreq/internal/cluster"
	"streamfreq/internal/core"
	"streamfreq/internal/obs"
	"streamfreq/internal/serve"
	"streamfreq/internal/stream"
	"streamfreq/internal/tenant"
	"streamfreq/internal/testutil"
	"streamfreq/internal/zipf"
)

// swappable lets a test replace the handler behind a fixed URL — the
// loopback stand-in for a node process dying and coming back on the
// same host:port.
type swappable struct {
	h atomic.Pointer[http.Handler]
}

func (s *swappable) set(h http.Handler) { s.h.Store(&h) }

func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// down is the handler of a dead node: every request fails.
func down() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "node is down", http.StatusServiceUnavailable)
	})
}

// node spins up one in-memory freqd (algo at phi, given epoch) behind a
// swappable handler.
func node(t *testing.T, algo string, phi float64, epoch uint64) (*httptest.Server, *swappable, *serve.Server) {
	t.Helper()
	target := core.NewConcurrent(streamfreq.MustNew(algo, phi, 1)).ServeSnapshots(0)
	srv := serve.NewServer(serve.Options{Target: target, Algo: algo, Epoch: epoch})
	sw := &swappable{}
	sw.set(srv.Handler())
	return httptest.NewServer(sw), sw, srv
}

func ingest(t *testing.T, url string, items []core.Item) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "application/octet-stream",
		bytes.NewReader(stream.AppendRaw(nil, items)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s/ingest: %s: %s", url, resp.Status, b)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

func coordinator(t *testing.T, algo string, urls ...string) *cluster.Coordinator {
	t.Helper()
	c, err := cluster.New(cluster.Options{
		Nodes:        urls,
		Algo:         algo,
		MergeEncoded: streamfreq.MergeEncoded,
		Epoch:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

type clusterStats struct {
	Algo    string `json:"algo"`
	N       int64  `json:"n"`
	Cluster struct {
		Nodes []struct {
			URL      string `json:"url"`
			Algo     string `json:"algo"`
			N        int64  `json:"n"`
			Epoch    uint64 `json:"epoch"`
			Restarts int64  `json:"restarts"`
			HasData  bool   `json:"has_data"`
			Stale    bool   `json:"stale"`
			Dropped  bool   `json:"dropped"`
			Error    string `json:"error"`
		} `json:"nodes"`
		Merges       int64  `json:"merges"`
		MergeError   string `json:"merge_error"`
		FreshNodes   int    `json:"fresh_nodes"`
		HaveNodes    int    `json:"have_nodes"`
		DroppedNodes int    `json:"dropped_nodes"`
	} `json:"cluster"`
}

type topkResponse struct {
	N         int64 `json:"n"`
	Threshold int64 `json:"threshold"`
	Items     []struct {
		Item  uint64 `json:"item"`
		Count int64  `json:"count"`
	} `json:"items"`
}

// TestCoordinatorMergesDisjointPartitions: three nodes each ingest a
// disjoint slice of one Zipf stream; the coordinator's merged state
// answers for the whole stream — N is the exact total (Space-Saving
// merge adds stream lengths) and hot-item estimates never underestimate
// the union count.
func TestCoordinatorMergesDisjointPartitions(t *testing.T) {
	const phi = 0.005
	g, err := zipf.NewGenerator(1<<14, 1.2, 0xBEEF, true)
	if err != nil {
		t.Fatal(err)
	}
	items := g.Stream(90_000)

	var urls []string
	for i := 0; i < 3; i++ {
		ts, _, _ := node(t, "SSH", phi, uint64(100+i))
		defer ts.Close()
		// Disjoint contiguous partition of the arrival sequence.
		lo, hi := i*len(items)/3, (i+1)*len(items)/3
		ingest(t, ts.URL, items[lo:hi])
		urls = append(urls, ts.URL)
	}

	c := coordinator(t, "", urls...)
	c.PullAll(context.Background())

	if got, want := c.N(), int64(len(items)); got != want {
		t.Fatalf("merged N = %d, want %d", got, want)
	}

	// Serve the merged state over HTTP and check the node-identical API.
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()
	var tr topkResponse
	getJSON(t, cs.URL+"/topk?phi=0.005", &tr)
	if tr.N != int64(len(items)) {
		t.Fatalf("/topk n = %d, want %d", tr.N, len(items))
	}
	if len(tr.Items) == 0 {
		t.Fatal("/topk reported nothing over a Zipf stream")
	}
	// Space-Saving never underestimates, merged or not.
	counts := map[core.Item]int64{}
	for _, it := range items {
		counts[core.Item(it)]++
	}
	for _, ic := range tr.Items {
		if truth := counts[core.Item(ic.Item)]; ic.Count < truth {
			t.Fatalf("merged estimate %d underestimates true %d (item %#x)", ic.Count, truth, ic.Item)
		}
	}

	var st clusterStats
	getJSON(t, cs.URL+"/stats", &st)
	if st.Algo != "SSH" {
		t.Fatalf("adopted algo %q, want SSH", st.Algo)
	}
	if st.Cluster.FreshNodes != 3 || st.Cluster.HaveNodes != 3 {
		t.Fatalf("fresh/have = %d/%d, want 3/3", st.Cluster.FreshNodes, st.Cluster.HaveNodes)
	}
	for _, ns := range st.Cluster.Nodes {
		if !ns.HasData || ns.Stale || ns.Error != "" {
			t.Fatalf("node %s unhealthy in stats: %+v", ns.URL, ns)
		}
	}

	// The coordinator's own /summary re-exports the merged state —
	// clusters stack. Pull it like a higher-tier coordinator would.
	resp, err := http.Get(cs.URL + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	reexported, err := streamfreq.Decode(blob)
	if err != nil {
		t.Fatalf("decoding coordinator /summary: %v", err)
	}
	if reexported.N() != int64(len(items)) {
		t.Fatalf("re-exported N = %d, want %d", reexported.N(), len(items))
	}
}

// TestCoordinatorServesStaleOnNodeFailure: when a node dies, its last
// good summary keeps contributing to the merge, and /stats says so.
func TestCoordinatorServesStaleOnNodeFailure(t *testing.T) {
	tsA, _, _ := node(t, "SSH", 0.01, 1)
	defer tsA.Close()
	tsB, swB, _ := node(t, "SSH", 0.01, 2)
	defer tsB.Close()

	ingest(t, tsA.URL, zipf.Sequential(1000))
	ingest(t, tsB.URL, zipf.Sequential(500))

	c := coordinator(t, "SSH", tsA.URL, tsB.URL)
	c.PullAll(context.Background())
	if got := c.N(); got != 1500 {
		t.Fatalf("merged N = %d, want 1500", got)
	}

	// B dies; A keeps ingesting.
	swB.set(down())
	ingest(t, tsA.URL, zipf.Sequential(250))
	c.PullAll(context.Background())

	// Merged view: A fresh (1250) + B stale (500).
	if got := c.N(); got != 1750 {
		t.Fatalf("merged N with one stale node = %d, want 1750", got)
	}
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()
	var st clusterStats
	getJSON(t, cs.URL+"/stats", &st)
	if st.Cluster.FreshNodes != 1 || st.Cluster.HaveNodes != 2 {
		t.Fatalf("fresh/have = %d/%d, want 1/2", st.Cluster.FreshNodes, st.Cluster.HaveNodes)
	}
	var sawStale bool
	for _, ns := range st.Cluster.Nodes {
		if ns.URL == tsB.URL {
			sawStale = true
			if !ns.Stale || !ns.HasData || ns.Error == "" || ns.N != 500 {
				t.Fatalf("dead node stats: %+v, want stale has_data n=500 with error", ns)
			}
		}
	}
	if !sawStale {
		t.Fatal("/stats missing the dead node")
	}
}

// TestCoordinatorRejectsMixedAlgorithms: a node serving a different
// algorithm is excluded with a per-node error; the rest of the cluster
// keeps serving.
func TestCoordinatorRejectsMixedAlgorithms(t *testing.T) {
	tsA, _, _ := node(t, "SSH", 0.01, 1)
	defer tsA.Close()
	tsB, _, _ := node(t, "F", 0.01, 2)
	defer tsB.Close()
	ingest(t, tsA.URL, zipf.Sequential(800))
	ingest(t, tsB.URL, zipf.Sequential(600))

	c := coordinator(t, "SSH", tsA.URL, tsB.URL)
	c.PullAll(context.Background())

	if got := c.N(); got != 800 {
		t.Fatalf("merged N = %d, want 800 (the F node must contribute nothing)", got)
	}
	st := c.Stats()
	var mismatched bool
	for _, ns := range st.Nodes {
		if ns.URL == tsB.URL {
			if ns.HasData {
				t.Fatalf("mismatched node has data in the merge: %+v", ns)
			}
			if !strings.Contains(ns.LastErr, "algorithm mismatch") {
				t.Fatalf("mismatched node error = %q, want an algorithm mismatch", ns.LastErr)
			}
			mismatched = true
		}
	}
	if !mismatched {
		t.Fatal("stats missing the mismatched node")
	}
}

// TestCoordinatorSurvivesHostileBlob: a node whose /summary is a
// 52-byte HI01 blob claiming one level of 2^64−16 bytes fails its own
// pull with an "undecodable summary" error. The pull decodes in its own
// goroutine, so a decoder panic there would kill the coordinator; the
// other node keeps serving.
func TestCoordinatorSurvivesHostileBlob(t *testing.T) {
	good, _, _ := node(t, "CMH", 0.01, 1)
	defer good.Close()
	ingest(t, good.URL, zipf.Sequential(500))
	blob := []byte("HI01")
	for _, v := range []uint64{0, 4, 8, 0, 1, 1<<64 - 16} { // CMH, bits, universe bits, n, levels, level length
		blob = binary.LittleEndian.AppendUint64(blob, v)
	}
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.HeaderEpoch, "9")
		w.Write(blob)
	}))
	defer hostile.Close()

	c := coordinator(t, "CMH", good.URL, hostile.URL)
	c.PullAll(context.Background())

	if got := c.N(); got != 500 {
		t.Fatalf("merged N = %d, want the good node's 500", got)
	}
	for _, ns := range c.Stats().Nodes {
		switch ns.URL {
		case good.URL:
			if !ns.HasData || ns.LastErr != "" {
				t.Fatalf("good node not serving: %+v", ns)
			}
		case hostile.URL:
			if ns.HasData || !strings.Contains(ns.LastErr, "undecodable summary") {
				t.Fatalf("hostile node = %+v, want no data and an undecodable-summary error", ns)
			}
		}
	}
}

// TestCoordinatorAdoptionWithMixedNodes: with no -algo configured the
// coordinator adopts whichever algorithm it decodes first; the other
// node is then rejected — it never silently mixes estimators.
func TestCoordinatorAdoptionWithMixedNodes(t *testing.T) {
	tsA, _, _ := node(t, "SSH", 0.01, 1)
	defer tsA.Close()
	tsB, _, _ := node(t, "F", 0.01, 2)
	defer tsB.Close()
	ingest(t, tsA.URL, zipf.Sequential(300))
	ingest(t, tsB.URL, zipf.Sequential(200))

	c := coordinator(t, "", tsA.URL, tsB.URL)
	c.PullAll(context.Background())

	st := c.Stats()
	if st.Algo != "SSH" && st.Algo != "F" {
		t.Fatalf("adopted algo %q, want one of the nodes'", st.Algo)
	}
	var data, rejected int
	for _, ns := range st.Nodes {
		if ns.HasData {
			data++
		}
		if strings.Contains(ns.LastErr, "algorithm mismatch") {
			rejected++
		}
	}
	if data != 1 || rejected != 1 {
		t.Fatalf("with mixed algos: %d nodes merged, %d rejected; want exactly 1/1 (stats: %+v)",
			data, rejected, st.Nodes)
	}
}

// TestCoordinatorBeforeFirstPull: an empty coordinator answers like an
// empty node (/topk n=0) and has no /summary to export yet.
func TestCoordinatorBeforeFirstPull(t *testing.T) {
	c := coordinator(t, "SSH", "http://127.0.0.1:1") // nothing listens there
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	var tr topkResponse
	getJSON(t, cs.URL+"/topk", &tr)
	if tr.N != 0 || len(tr.Items) != 0 {
		t.Fatalf("/topk before any pull: %+v, want empty", tr)
	}
	resp, err := http.Get(cs.URL + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/summary before any pull: %s, want 404", resp.Status)
	}

	// The unreachable pull records a failure without wedging anything.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c.PullAll(ctx)
	st := c.Stats()
	if st.Nodes[0].Failures == 0 || st.Nodes[0].LastErr == "" {
		t.Fatalf("unreachable node stats: %+v, want a recorded failure", st.Nodes[0])
	}

	// /ingest names the contract.
	ir, err := http.Post(cs.URL+"/ingest", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	ir.Body.Close()
	if ir.StatusCode != http.StatusNotImplemented {
		t.Fatalf("POST /ingest on coordinator: %s, want 501", ir.Status)
	}
}

// TestNewValidation: configuration errors are loud and immediate.
func TestNewValidation(t *testing.T) {
	if _, err := cluster.New(cluster.Options{MergeEncoded: streamfreq.MergeEncoded}); err == nil {
		t.Fatal("New with no nodes succeeded")
	}
	if _, err := cluster.New(cluster.Options{Nodes: []string{"http://a:1"}}); err == nil {
		t.Fatal("New without MergeEncoded succeeded")
	}
	_, err := cluster.New(cluster.Options{
		Nodes:        []string{"http://a:1", "http://a:1/"},
		MergeEncoded: streamfreq.MergeEncoded,
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate node URLs: err = %v, want duplicate error", err)
	}
}

// TestCoordinatorFreshnessSLO: with -max-stale set, a stalled node's
// contribution is dropped from the merge (and the merged N) once its
// data is older than the bound, surfaced in /stats — and rejoins the
// moment a pull succeeds again.
func TestCoordinatorFreshnessSLO(t *testing.T) {
	const maxStale = 80 * time.Millisecond
	tsA, _, _ := node(t, "SSH", 0.01, 1)
	defer tsA.Close()
	tsB, swB, srvB := node(t, "SSH", 0.01, 2)
	defer tsB.Close()
	ingest(t, tsA.URL, zipf.Sequential(1000))
	ingest(t, tsB.URL, zipf.Sequential(500))

	c, err := cluster.New(cluster.Options{
		Nodes:        []string{tsA.URL, tsB.URL},
		Algo:         "SSH",
		MaxStale:     maxStale,
		MergeEncoded: streamfreq.MergeEncoded,
		Epoch:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.PullAll(context.Background())
	if got := c.N(); got != 1500 {
		t.Fatalf("merged N = %d, want 1500 (both nodes fresh)", got)
	}

	// B stalls. Until the bound passes, its last good state still
	// contributes; once past it, the contribution is dropped.
	swB.set(down())
	c.PullAll(context.Background())
	if got := c.N(); got != 1500 {
		t.Fatalf("merged N = %d immediately after the stall, want 1500 (still within -max-stale)", got)
	}
	ingest(t, tsA.URL, zipf.Sequential(250))
	// Poll, not sleep: the bound is wall-clock from B's last good pull,
	// so keep pulling until B ages out and only A's 1250 remain.
	testutil.Eventually(t, 5*time.Second, func() bool {
		c.PullAll(context.Background())
		return c.N() == 1250
	}, "stalled node never aged out of the merge (want N=1250 from A only, max-stale %v)", maxStale)

	cs := httptest.NewServer(c.Handler())
	defer cs.Close()
	var st clusterStats
	getJSON(t, cs.URL+"/stats", &st)
	if st.Cluster.DroppedNodes != 1 || st.Cluster.HaveNodes != 1 {
		t.Fatalf("dropped/have = %d/%d, want 1/1", st.Cluster.DroppedNodes, st.Cluster.HaveNodes)
	}
	var sawDropped bool
	for _, ns := range st.Cluster.Nodes {
		if ns.URL == tsB.URL {
			sawDropped = true
			if !ns.Dropped || !ns.HasData {
				t.Fatalf("stalled node stats: %+v, want dropped with retained data", ns)
			}
		}
	}
	if !sawDropped {
		t.Fatal("/stats missing the stalled node")
	}

	// B recovers: one good pull puts it back in the merge.
	swB.set(srvB.Handler())
	c.PullAll(context.Background())
	if got := c.N(); got != 1750 {
		t.Fatalf("merged N after recovery = %d, want 1750", got)
	}
}

// TestCoordinatorAllNodesDropped: when every contribution is past the
// bound the coordinator serves the empty stream — explicitly fresh-
// nothing rather than silently stale-everything.
func TestCoordinatorAllNodesDropped(t *testing.T) {
	ts, sw, _ := node(t, "SSH", 0.01, 1)
	defer ts.Close()
	ingest(t, ts.URL, zipf.Sequential(300))

	c, err := cluster.New(cluster.Options{
		Nodes:        []string{ts.URL},
		Algo:         "SSH",
		MaxStale:     50 * time.Millisecond,
		MergeEncoded: streamfreq.MergeEncoded,
		Epoch:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.PullAll(context.Background())
	if got := c.N(); got != 300 {
		t.Fatalf("merged N = %d, want 300", got)
	}
	sw.set(down())
	// Poll, not sleep: pull until the only contribution ages past the
	// 50ms bound and the coordinator serves the empty stream.
	testutil.Eventually(t, 5*time.Second, func() bool {
		c.PullAll(context.Background())
		return c.N() == 0
	}, "last node never aged out (want merged N=0 with every contribution stale)")
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()
	resp, err := http.Get(cs.URL + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/summary with everything dropped: %s, want 404", resp.Status)
	}
}

// windowedNode spins up one in-memory windowed freqd ("SSW").
func windowedNode(t *testing.T, size, blocks, k int, epoch uint64) (*httptest.Server, serve.Target) {
	t.Helper()
	win, err := streamfreq.NewWindowed(size, blocks, k)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewConcurrent(win).ServeSnapshots(0)
	srv := serve.NewServer(serve.Options{Target: target, Algo: "SSW", Epoch: epoch})
	return httptest.NewServer(srv.Handler()), target
}

// TestCoordinatorMergesWindowedNodes: windowed summaries merge across
// nodes through the same pull/decode/Merge machinery as the flat ones —
// the merged view unions the nodes' *recent* windows, so each node's
// currently-hot item is reported and each node's expired history is not.
func TestCoordinatorMergesWindowedNodes(t *testing.T) {
	const size, blocks, k = 1000, 4, 100
	mkStream := func(oldHot, newHot core.Item, seed uint64) []core.Item {
		g, err := zipf.NewGenerator(1<<12, 0.8, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]core.Item, 0, 2800)
		for i := 0; i < 1500; i++ { // old phase, fully expired by the new one
			if i%3 == 0 {
				out = append(out, oldHot)
			} else {
				out = append(out, g.Next())
			}
		}
		for i := 0; i < 1300; i++ { // recent phase: newHot ≈ 25% of traffic
			if i%4 == 0 {
				out = append(out, newHot)
			} else {
				out = append(out, g.Next())
			}
		}
		return out
	}

	tsA, _ := windowedNode(t, size, blocks, k, 11)
	defer tsA.Close()
	tsB, _ := windowedNode(t, size, blocks, k, 12)
	defer tsB.Close()
	ingest(t, tsA.URL, mkStream(1001, 2001, 31))
	ingest(t, tsB.URL, mkStream(1002, 2002, 32))

	c := coordinator(t, "", tsA.URL, tsB.URL)
	c.PullAll(context.Background())
	st := c.Stats()
	if st.Algo != "SSW" {
		t.Fatalf("adopted algo %q, want SSW", st.Algo)
	}
	if c.N() != 2*2800 {
		t.Fatalf("merged N = %d, want %d", c.N(), 2*2800)
	}

	cs := httptest.NewServer(c.Handler())
	defer cs.Close()
	var tr topkResponse
	getJSON(t, cs.URL+"/topk?phi=0.05", &tr)
	if tr.N != 2*size {
		t.Fatalf("/topk windowed denominator = %d, want the union span %d", tr.N, 2*size)
	}
	reported := map[uint64]bool{}
	for _, ic := range tr.Items {
		reported[ic.Item] = true
	}
	for _, hot := range []uint64{2001, 2002} {
		if !reported[hot] {
			t.Fatalf("recent hot item %d missing from merged windowed /topk (got %v)", hot, tr.Items)
		}
	}
	for _, old := range []uint64{1001, 1002} {
		if reported[old] {
			t.Fatalf("expired item %d reported by the merged window at φ·2W", old)
		}
	}

	// Geometry mismatches are per-merge failures, like parameter
	// mismatches between flat nodes.
	tsC, _ := windowedNode(t, 2*size, blocks, k, 13)
	defer tsC.Close()
	ingest(t, tsC.URL, mkStream(1003, 2003, 33))
	c2 := coordinator(t, "", tsA.URL, tsC.URL)
	c2.PullAll(context.Background())
	if st := c2.Stats(); st.MergeErr == "" {
		t.Fatalf("geometry-mismatched windowed nodes merged without error (stats %+v)", st)
	}
}

// tenantNode spins up one in-memory tenant-mode freqd behind a
// swappable handler, returning its table so a test can restart the
// node (same state, new epoch) or read its namespace blobs.
func tenantNode(t *testing.T, epoch uint64) (*httptest.Server, *swappable, *tenant.Table) {
	t.Helper()
	table, err := tenant.NewTable(tenant.Options{DefaultPhi: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Options{Target: table, Algo: "SSH", Tenants: table, Epoch: epoch})
	sw := &swappable{}
	sw.set(srv.Handler())
	return httptest.NewServer(sw), sw, table
}

// tenantCoordinator builds a coordinator over tenant-mode nodes.
func tenantCoordinator(t *testing.T, maxStale time.Duration, o *obs.Obs, urls ...string) *cluster.Coordinator {
	t.Helper()
	c, err := cluster.New(cluster.Options{
		Nodes:        urls,
		MaxStale:     maxStale,
		MergeEncoded: streamfreq.MergeEncoded,
		Obs:          o,
		Epoch:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// namespaceBlobs returns each namespace's encoded summary on one node.
func namespaceBlobs(t *testing.T, table *tenant.Table) map[string][]byte {
	t.Helper()
	bundle, err := table.EncodeBundle()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := tenant.DecodeBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		out[e.NS] = e.Blob
	}
	return out
}

// status returns the HTTP status of a GET.
func status(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

type tenantsResponse struct {
	Namespaces []struct {
		NS string `json:"ns"`
		N  int64  `json:"n"`
	} `json:"namespaces"`
}

// listedNamespaces returns the coordinator's /v1/tenants as ns → n.
func listedNamespaces(t *testing.T, base string) map[string]int64 {
	t.Helper()
	var tr tenantsResponse
	getJSON(t, base+"/v1/tenants", &tr)
	out := make(map[string]int64, len(tr.Namespaces))
	for _, row := range tr.Namespaces {
		out[row.NS] = row.N
	}
	return out
}

// TestCoordinatorMergesTenantNamespaces: two tenant-mode nodes share
// some namespaces and own others. Each namespace merges exactly like
// streamfreq.MergeEncoded over the nodes' blobs for it, and the node-
// level failure semantics (stale serving, -max-stale drops, epoch-
// change restarts) hold for every namespace at once.
func TestCoordinatorMergesTenantNamespaces(t *testing.T) {
	const threshold = 5
	g, err := zipf.NewGenerator(1<<12, 1.1, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	tsA, _, tableA := tenantNode(t, 1)
	defer tsA.Close()
	tsB, swB, tableB := tenantNode(t, 2)
	defer tsB.Close()
	ingest(t, tsA.URL+"/v1/t/shared", g.Stream(3000))
	ingest(t, tsA.URL+"/v1/t/onlyA", zipf.Sequential(1000))
	ingest(t, tsB.URL+"/v1/t/shared", g.Stream(2000))
	ingest(t, tsB.URL+"/v1/t/onlyB", zipf.Sequential(500))

	c := tenantCoordinator(t, 0, nil, tsA.URL, tsB.URL)
	c.PullAll(context.Background())
	// A second coordinator with a freshness SLO, primed while both
	// nodes are up.
	const maxStale = 80 * time.Millisecond
	cStale := tenantCoordinator(t, maxStale, nil, tsA.URL, tsB.URL)
	cStale.PullAll(context.Background())

	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	// Every namespace merges like MergeEncoded over the nodes' blobs for
	// it, in node order; its n is the sum over the nodes.
	blobsA, blobsB := namespaceBlobs(t, tableA), namespaceBlobs(t, tableB)
	wantN := map[string]int64{"shared": 5000, "onlyA": 1000, "onlyB": 500}
	for ns, n := range wantN {
		var blobs [][]byte
		for _, node := range []map[string][]byte{blobsA, blobsB} {
			if b, ok := node[ns]; ok {
				blobs = append(blobs, b)
			}
		}
		want, err := streamfreq.MergeEncoded(blobs...)
		if err != nil {
			t.Fatal(err)
		}
		var tr topkResponse
		getJSON(t, fmt.Sprintf("%s/v1/t/%s/topk?threshold=%d", cs.URL, ns, threshold), &tr)
		if tr.N != n || want.N() != n {
			t.Fatalf("namespace %s: merged n = %d (MergeEncoded %d), want %d", ns, tr.N, want.N(), n)
		}
		wantReport := want.Query(threshold)
		if len(tr.Items) != len(wantReport) || len(wantReport) == 0 {
			t.Fatalf("namespace %s: /topk reported %d items, MergeEncoded %d", ns, len(tr.Items), len(wantReport))
		}
		for i, ic := range wantReport {
			got := tr.Items[i]
			if core.Item(got.Item) != ic.Item || got.Count != ic.Count {
				t.Fatalf("namespace %s: /topk item %d = %d:%d, MergeEncoded %d:%d",
					ns, i, got.Item, got.Count, ic.Item, ic.Count)
			}
			var est struct {
				Estimate int64 `json:"estimate"`
			}
			getJSON(t, fmt.Sprintf("%s/v1/t/%s/estimate?item=%d", cs.URL, ns, ic.Item), &est)
			if est.Estimate != want.Estimate(ic.Item) {
				t.Fatalf("namespace %s: /estimate of %d = %d, MergeEncoded %d",
					ns, ic.Item, est.Estimate, want.Estimate(ic.Item))
			}
		}
	}
	if got := listedNamespaces(t, cs.URL); !reflect.DeepEqual(got, wantN) {
		t.Fatalf("/v1/tenants = %v, want the union %v", got, wantN)
	}
	if code := status(t, cs.URL+"/v1/t/nosuch/topk"); code != http.StatusNotFound {
		t.Fatalf("/v1/t/nosuch/topk: HTTP %d, want 404", code)
	}

	// B dies; A keeps ingesting. B's namespaces are served stale.
	swB.set(down())
	ingest(t, tsA.URL+"/v1/t/shared", g.Stream(1000))
	c.PullAll(context.Background())
	wantN = map[string]int64{"shared": 6000, "onlyA": 1000, "onlyB": 500}
	if got := listedNamespaces(t, cs.URL); !reflect.DeepEqual(got, wantN) {
		t.Fatalf("/v1/tenants with B down = %v, want %v (B served stale)", got, wantN)
	}

	// Past -max-stale, B leaves every namespace at once.
	testutil.Eventually(t, 5*time.Second, func() bool {
		cStale.PullAll(context.Background())
		v := cStale.Stats()
		return v.Dropped == 1
	}, "down node never aged out (max-stale %v)", maxStale)
	css := httptest.NewServer(cStale.Handler())
	defer css.Close()
	wantN = map[string]int64{"shared": 4000, "onlyA": 1000}
	if got := listedNamespaces(t, css.URL); !reflect.DeepEqual(got, wantN) {
		t.Fatalf("/v1/tenants past max-stale = %v, want %v (B dropped everywhere)", got, wantN)
	}
	if code := status(t, css.URL+"/v1/t/onlyB/topk"); code != http.StatusNotFound {
		t.Fatalf("/v1/t/onlyB/topk with its only node dropped: HTTP %d, want 404", code)
	}

	// B restarts with its state and a new epoch: one restart, and its
	// namespaces rejoin fresh.
	restarted := serve.NewServer(serve.Options{Target: tableB, Algo: "SSH", Tenants: tableB, Epoch: 22})
	swB.set(restarted.Handler())
	c.PullAll(context.Background())
	var rowB *cluster.NodeStats
	st := c.Stats()
	for i := range st.Nodes {
		if st.Nodes[i].URL == tsB.URL {
			rowB = &st.Nodes[i]
		}
	}
	if rowB == nil || rowB.Restarts != 1 || rowB.Epoch != 22 || rowB.LastErr != "" {
		t.Fatalf("restarted node stats: %+v, want one restart at epoch 22", rowB)
	}
	var names []string
	for ns := range listedNamespaces(t, cs.URL) {
		names = append(names, ns)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{"onlyA", "onlyB", "shared"}) {
		t.Fatalf("/v1/tenants after the restart lists %v", names)
	}
}

// TestTenantNodeWithoutDefaultNamespaceHasData: a tenant node whose
// namespaces are all named still contributes, so /stats must show it
// with data — and stale once it goes down.
func TestTenantNodeWithoutDefaultNamespaceHasData(t *testing.T) {
	ts, sw, _ := tenantNode(t, 1)
	defer ts.Close()
	ingest(t, ts.URL+"/v1/t/eu", zipf.Sequential(400))

	c := tenantCoordinator(t, 0, nil, ts.URL)
	c.PullAll(context.Background())
	if row := c.Stats().Nodes[0]; !row.HasData || row.Stale || row.N != 400 {
		t.Fatalf("node with only named namespaces: %+v, want has_data, not stale, n=400", row)
	}
	sw.set(down())
	c.PullAll(context.Background())
	if row := c.Stats().Nodes[0]; !row.HasData || !row.Stale {
		t.Fatalf("down node with only named namespaces: %+v, want has_data and stale", row)
	}
}

// TestPullAllocationBounded: one pull of a tenant bundle whose three
// namespaces are SS01 headers claiming the largest budget a decoder
// accepts, and no entries (120 bytes), allocates under 1 MiB: a decoded
// store is sized by the entries its blob carries, and so is its
// snapshot.
func TestPullAllocationBounded(t *testing.T) {
	le := binary.LittleEndian
	ss := le.AppendUint64(le.AppendUint64(le.AppendUint64([]byte("SS01"), 1<<22), 0), 0) // k, n, entries
	bundle := le.AppendUint32([]byte("SFTB0001"), 3)
	for _, ns := range []string{"n0", "n1", "n2"} {
		bundle = append(le.AppendUint16(bundle, uint16(len(ns))), ns...)
		bundle = append(le.AppendUint32(bundle, uint32(len(ss))), ss...)
	}
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.HeaderEpoch, "9")
		w.Header().Set("Content-Type", serve.TenantBundleContentType)
		w.Write(bundle)
	}))
	defer hostile.Close()
	c := coordinator(t, "SSH", hostile.URL)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c.PullAll(context.Background())
	runtime.ReadMemStats(&after)
	if row := c.Stats().Nodes[0]; !row.HasData || row.LastErr != "" {
		t.Fatalf("pull of the %d-byte bundle: %+v, want it decoded", len(bundle), row)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("pulling a %d-byte bundle allocated %d bytes", len(bundle), got)
	if got >= 1<<20 {
		t.Errorf("pulling a %d-byte bundle allocated %d bytes, want under 1 MiB", len(bundle), got)
	}
}
