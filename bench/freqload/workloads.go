package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/prng"
	"streamfreq/internal/stream"
	"streamfreq/internal/zipf"
)

// Tier parameters every workload shares. They are the daemons' own
// defaults where a default exists (staleness, fsync policy, checkpoint
// cadence); the rest are the values the workload table fixes.
const (
	phi            = 0.001
	phiParam       = "0.001"
	mergeInterval  = 200 * time.Millisecond
	staleness      = 100 * time.Millisecond
	pipelineShards = 2
	tenantResident = 512
	tenantSpace    = 20000
	hotTenants     = 16
)

// nodeSpec is one freqd configuration.
type nodeSpec struct {
	algo     string
	pipeline bool // -pipeline -shards 2
	tenants  bool // -tenants -tenant-max-resident 512
}

func (n nodeSpec) flags() []string {
	f := []string{"-algo", n.algo, "-phi", phiParam}
	if n.pipeline {
		f = append(f, "-pipeline", "-shards", strconv.Itoa(pipelineShards))
	}
	if n.tenants {
		f = append(f, "-tenants", "-tenant-max-resident", strconv.Itoa(tenantResident))
	}
	return f
}

// Coordinator arrangements.
const (
	mergeNone   = iota // queries go to the single node
	mergeRouter        // freqmerge -router: partition-exact view of the write tier
	mergeNodes         // freqmerge -nodes: flat merge of every node's summary
)

// workload is one traffic mix against one tier topology. Ingest and
// queries each have one connection; in the open-loop phase each is sent
// at its fixed rate, in the closed-loop phase as fast as replies come.
type workload struct {
	name string
	why  string

	node    nodeSpec
	nodes   int  // freqd processes
	router  bool // ingest goes through freqrouter (one shard per node)
	merge   int  // coordinator arrangement
	preload int  // bodies ingested into each node before set-up, then the node is SIGKILLed

	ingestRate float64 // open-loop ingest requests per second
	queryRate  float64 // open-loop queries per second

	gen func(seed uint64) (*inputs, error)
}

// ssh reports whether the recall gate applies: Space-Saving at k = 1/φ+1
// counters can never miss an item above φN.
func (w *workload) ssh() bool { return w.node.algo == "SSH" }

var workloads = []*workload{
	{
		name:       "bulk-zipf",
		why:        "large raw batches: per-item decode, ring split, Space-Saving batch updates and WAL bytes dominate",
		node:       nodeSpec{algo: "SSH", pipeline: true},
		nodes:      2,
		router:     true,
		merge:      mergeRouter,
		ingestRate: 95,
		queryRate:  40,
		gen:        genBulkZipf,
	},
	{
		name:       "small-text",
		why:        "small text batches: per-request costs dominate (three HTTP hops, fan-out, one WAL record each)",
		node:       nodeSpec{algo: "SSH"},
		nodes:      2,
		router:     true,
		merge:      mergeRouter,
		ingestRate: 370,
		queryRate:  40,
		gen:        genSmallText,
	},
	{
		name:       "query-hhh",
		why:        "query-heavy: hierarchical heavy hitters, Count-Min hierarchy merges and snapshot clones; WAL recovery in set-up",
		node:       nodeSpec{algo: "CMH"},
		nodes:      2,
		merge:      mergeNodes,
		preload:    512,
		ingestRate: 20,
		queryRate:  30,
		gen:        genQueryHHH,
	},
	{
		name:       "tenant-churn",
		why:        "namespaced ingest over 20000 tenants with 512 resident: tenant WAL records, CLOCK eviction and reloads",
		node:       nodeSpec{algo: "SSH", tenants: true},
		nodes:      1,
		merge:      mergeNone,
		ingestRate: 875,
		queryRate:  40,
		gen:        genTenantChurn,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// request is one HTTP request a lane sends.
type request struct {
	route string // ingest, topk, estimate, hhh, range, quantile
	host  int    // which of the lane's base URLs, modulo their count
	path  string // path and query string
	body  int    // index into inputs.bodies for ingest, -1 otherwise
	key   string // the stream written or read: a tenant namespace, "" for the global stream
}

// body is one pre-generated ingest body and the items it decodes to.
type body struct {
	data  []byte
	items []core.Item
}

// inputs is everything a run sends, generated from the seed before any
// timing starts. The ingest and query lanes cycle through their
// sequences; truth is rebuilt afterwards from per-body ack counts.
type inputs struct {
	ctype  string
	bodies []body
	ingest []request
	query  []request
	warm   []request // sent once before the warm-up load
	hot    []string  // tenant namespaces the accuracy check reads; nil = the global stream
}

const seqLen = 8192

// seeds derives independent generator seeds from the run seed.
type seeds struct{ sm *prng.SplitMix64 }

func newSeeds(seed uint64) seeds { return seeds{prng.NewSplitMix64(seed)} }

func (s seeds) next() uint64 { return s.sm.Next() }

func rawBodies(g *zipf.Generator, count, size int) []body {
	out := make([]body, count)
	for i := range out {
		items := make([]core.Item, size)
		g.Fill(items)
		out[i] = body{data: stream.AppendRaw(make([]byte, 0, 8*size), items), items: items}
	}
	return out
}

func ingestSeq(rng *prng.Xoshiro256, bodies, hosts int, path string) []request {
	out := make([]request, seqLen)
	for i := range out {
		out[i] = request{route: "ingest", host: i % hosts, path: path, body: int(rng.Uint64n(uint64(bodies)))}
	}
	return out
}

func topkReq(path string, key string) request {
	return request{route: "topk", path: path, body: -1, key: key}
}

func estimateReq(it core.Item) request {
	return request{route: "estimate", path: "/v1/estimate?item=" + strconv.FormatUint(uint64(it), 10), body: -1}
}

// genBulkZipf: 8192 raw items per request, Zipf z=1.1 over 2^20; queries
// are half top-k, half point estimates of Zipf-drawn items.
func genBulkZipf(seed uint64) (*inputs, error) {
	sd := newSeeds(seed)
	g, err := zipf.NewGenerator(1<<20, 1.1, sd.next(), true)
	if err != nil {
		return nil, err
	}
	in := &inputs{ctype: "application/octet-stream", bodies: rawBodies(g, 128, 8192)}
	rng := prng.New(sd.next())
	in.ingest = ingestSeq(rng, len(in.bodies), 1, "/v1/ingest")
	in.query = make([]request, seqLen)
	for i := range in.query {
		if i%2 == 0 {
			in.query[i] = topkReq("/v1/topk?phi="+phiParam, "")
		} else {
			in.query[i] = estimateReq(g.Next())
		}
	}
	return in, nil
}

// genSmallText: 32 whitespace-separated tokens per request, Zipf z=0.8
// over 2^22 spellings; queries are half top-k, half token estimates.
func genSmallText(seed uint64) (*inputs, error) {
	sd := newSeeds(seed)
	g, err := zipf.NewGenerator(1<<22, 0.8, sd.next(), true)
	if err != nil {
		return nil, err
	}
	token := func() string { return "w" + strconv.FormatUint(uint64(g.Next()), 36) }
	in := &inputs{ctype: "text/plain", bodies: make([]body, 4096)}
	for i := range in.bodies {
		toks := make([]string, 32)
		items := make([]core.Item, len(toks))
		for j := range toks {
			toks[j] = token()
			items[j] = core.HashString(toks[j])
		}
		in.bodies[i] = body{data: []byte(strings.Join(toks, " ")), items: items}
	}
	rng := prng.New(sd.next())
	in.ingest = ingestSeq(rng, len(in.bodies), 1, "/v1/ingest")
	in.query = make([]request, seqLen)
	for i := range in.query {
		if i%2 == 0 {
			in.query[i] = topkReq("/v1/topk?phi="+phiParam, "")
		} else {
			in.query[i] = request{route: "estimate", path: "/v1/estimate?token=" + token(), body: -1}
		}
	}
	return in, nil
}

// genQueryHHH: raw Zipf bodies alternate between the two nodes; queries
// are 20% hhh, 20% top-k, 40% estimate, 10% range, 10% quantile.
func genQueryHHH(seed uint64) (*inputs, error) {
	sd := newSeeds(seed)
	g, err := zipf.NewGenerator(1<<20, 1.1, sd.next(), true)
	if err != nil {
		return nil, err
	}
	in := &inputs{ctype: "application/octet-stream", bodies: rawBodies(g, 64, 8192)}
	rng := prng.New(sd.next())
	in.ingest = ingestSeq(rng, len(in.bodies), 2, "/v1/ingest")
	// A fixed rotation keeps the mix exact in every run; only the
	// parameters vary with the seed.
	mix := []string{"hhh", "estimate", "topk", "estimate", "range", "estimate", "hhh", "estimate", "topk", "quantile"}
	in.query = make([]request, seqLen)
	for i := range in.query {
		switch mix[i%len(mix)] {
		case "hhh":
			in.query[i] = request{route: "hhh", path: "/v1/hhh?phi=" + phiParam, body: -1}
		case "topk":
			in.query[i] = topkReq("/v1/topk?phi="+phiParam, "")
		case "estimate":
			in.query[i] = estimateReq(g.Next())
		case "range":
			// A 2^48-wide range straddling a 2^48 boundary: its dyadic
			// cover is 256 blocks at every seed.
			lo := rng.Uint64n(0xffff)<<48 | 0x80<<40
			in.query[i] = request{route: "range", body: -1,
				path: fmt.Sprintf("/v1/range?lo=%d&hi=%d", lo, lo+1<<48-1)}
		case "quantile":
			in.query[i] = request{route: "quantile", body: -1,
				path: fmt.Sprintf("/v1/quantile?q=%.2f", float64(1+rng.Uint64n(98))/100)}
		}
	}
	return in, nil
}

func tenantName(rank int) string { return fmt.Sprintf("t%05d", rank) }

// genTenantChurn: 512 raw items per request into a namespace drawn Zipf
// z=1.0 over 20000; queries read the top-k of the hottest namespaces.
func genTenantChurn(seed uint64) (*inputs, error) {
	sd := newSeeds(seed)
	g, err := zipf.NewGenerator(1<<20, 1.1, sd.next(), true)
	if err != nil {
		return nil, err
	}
	// Unscrambled: rank r is namespace t<r>, so the hot set is known.
	nsGen, err := zipf.NewGenerator(tenantSpace, 1.0, sd.next(), false)
	if err != nil {
		return nil, err
	}
	in := &inputs{ctype: "application/octet-stream", bodies: rawBodies(g, 1024, 512)}
	rng := prng.New(sd.next())
	tenantReq := func(ns string) request {
		return request{route: "ingest", path: "/v1/t/" + ns + "/ingest", body: int(rng.Uint64n(uint64(len(in.bodies)))), key: ns}
	}
	for r := 1; r <= hotTenants; r++ {
		ns := tenantName(r)
		in.hot = append(in.hot, ns)
		in.warm = append(in.warm, tenantReq(ns))
	}
	in.ingest = make([]request, 2*seqLen)
	for i := range in.ingest {
		in.ingest[i] = tenantReq(tenantName(int(nsGen.Next())))
	}
	in.query = make([]request, seqLen)
	for i := range in.query {
		ns := in.hot[rng.Uint64n(hotTenants)]
		in.query[i] = topkReq("/v1/t/"+ns+"/topk?phi="+phiParam, ns)
	}
	return in, nil
}
