// Package trace synthesizes the "real data" workloads of the paper's
// evaluation. The original study used two proprietary traces: an HTTP
// request log and a UDP/IP packet trace. Neither ships with this
// repository, so trace provides generators that reproduce the statistical
// properties those traces contribute to the experiments:
//
//   - HTTPGenerator: web-object requests with power-law popularity below
//     1 (z ≈ 0.85, the regime where counter algorithms are stressed),
//     temporal locality via an LRU-stack reference model, and popularity
//     drift (new objects becoming hot over time).
//
//   - UDPGenerator: packets belonging to concurrently active flows whose
//     sizes are Pareto (heavy-tailed) and whose packets interleave, so a
//     summary sees each elephant flow as a long, interrupted run.
//
// Both generators are deterministic given a seed.
package trace

import (
	"fmt"

	"streamfreq/internal/core"
	"streamfreq/internal/hash"
	"streamfreq/internal/prng"
	"streamfreq/internal/zipf"
)

// HTTPConfig parameterizes the HTTP-like request trace.
type HTTPConfig struct {
	// Objects is the size of the base object population.
	Objects int
	// Skew is the Zipf parameter of base popularity. Web request traces
	// empirically show skew just below 1.
	Skew float64
	// LocalityProb is the probability that a request re-references one of
	// the most recently used objects instead of sampling the base
	// distribution, modeling temporal locality.
	LocalityProb float64
	// LocalityDepth is the size of the recency window.
	LocalityDepth int
	// DriftEvery introduces a popularity shift every DriftEvery requests:
	// a previously cold object is swapped into the hot set. Zero disables
	// drift.
	DriftEvery int
	// Seed makes the trace reproducible.
	Seed uint64
}

// DefaultHTTPConfig mirrors the HTTP-trace characteristics listed in the
// package doc.
func DefaultHTTPConfig(seed uint64) HTTPConfig {
	return HTTPConfig{
		Objects:       1 << 20,
		Skew:          0.85,
		LocalityProb:  0.2,
		LocalityDepth: 64,
		DriftEvery:    200_000,
		Seed:          seed,
	}
}

// HTTPGenerator produces an HTTP-request-like item stream.
type HTTPGenerator struct {
	cfg     HTTPConfig
	base    *zipf.Generator
	rng     *prng.Xoshiro256
	recent  []core.Item // ring buffer of recently requested objects
	pos     int
	filled  int
	emitted int
	// remap redirects a hot rank to a cold object after drift events.
	remap map[core.Item]core.Item
	drift uint64
}

// NewHTTP returns a generator for the given configuration.
func NewHTTP(cfg HTTPConfig) (*HTTPGenerator, error) {
	if cfg.Objects <= 0 {
		return nil, fmt.Errorf("trace: Objects must be positive, got %d", cfg.Objects)
	}
	if cfg.LocalityProb < 0 || cfg.LocalityProb >= 1 {
		return nil, fmt.Errorf("trace: LocalityProb must be in [0,1), got %g", cfg.LocalityProb)
	}
	if cfg.LocalityDepth <= 0 {
		cfg.LocalityDepth = 1
	}
	base, err := zipf.NewGenerator(cfg.Objects, cfg.Skew, cfg.Seed^0x48545450, true)
	if err != nil {
		return nil, err
	}
	return &HTTPGenerator{
		cfg:    cfg,
		base:   base,
		rng:    prng.New(cfg.Seed ^ 0x1ee7),
		recent: make([]core.Item, cfg.LocalityDepth),
		remap:  make(map[core.Item]core.Item),
	}, nil
}

// Next returns the next requested object identifier.
func (g *HTTPGenerator) Next() core.Item {
	g.emitted++
	if g.cfg.DriftEvery > 0 && g.emitted%g.cfg.DriftEvery == 0 {
		// Popularity drift: future references to a random top-100 object
		// are redirected to a fresh identifier ("new page goes viral").
		rank := int(g.rng.Uint64n(100)) + 1
		hot := g.base.ItemOfRank(rank)
		g.drift++
		g.remap[hot] = core.Item(hash.Mix64(uint64(g.emitted)<<20 ^ g.drift ^ 0xDEAD))
	}
	var it core.Item
	if g.filled > 0 && g.rng.Float64() < g.cfg.LocalityProb {
		// Re-reference a recent object (uniform over the recency window).
		it = g.recent[int(g.rng.Uint64n(uint64(g.filled)))]
	} else {
		it = g.base.Next()
		if to, ok := g.remap[it]; ok {
			it = to
		}
	}
	// Record in the recency ring.
	g.recent[g.pos] = it
	g.pos = (g.pos + 1) % len(g.recent)
	if g.filled < len(g.recent) {
		g.filled++
	}
	return it
}

// Stream materializes n requests.
func (g *HTTPGenerator) Stream(n int) []core.Item {
	s := make([]core.Item, n)
	for i := range s {
		s[i] = g.Next()
	}
	return s
}

// UDPConfig parameterizes the UDP-flow-like packet trace.
type UDPConfig struct {
	// ActiveFlows is the number of flows concurrently in progress.
	ActiveFlows int
	// Alpha is the Pareto shape of flow sizes (packets per flow). Values
	// near 1.1–1.3 give the elephant/mice mix of Internet traffic.
	Alpha float64
	// MinPackets is the Pareto scale (smallest flow size).
	MinPackets float64
	// MaxTrain caps the length of one packet train. Real traffic arrives
	// in trains whose length grows with the sender's backlog (congestion
	// windows, streaming buffers); trains are what let an elephant flow
	// dominate a measurement window. 0 selects 256.
	MaxTrain int
	// Seed makes the trace reproducible.
	Seed uint64
}

// DefaultUDPConfig mirrors the UDP-trace characteristics listed in the
// package doc.
func DefaultUDPConfig(seed uint64) UDPConfig {
	return UDPConfig{ActiveFlows: 4096, Alpha: 1.2, MinPackets: 1, MaxTrain: 256, Seed: seed}
}

// UDPGenerator emits one item per packet; the item identifies the packet's
// flow. Flows finish and are replaced, so the stream interleaves long
// elephant flows with swarms of short mice.
type UDPGenerator struct {
	cfg       UDPConfig
	rng       *prng.Xoshiro256
	flows     []core.Item // identifier of each active flow
	remaining []int64     // packets left in each active flow
	nextID    uint64
	curSlot   int   // flow currently sending a train
	burst     int64 // packets left in the current train
}

// NewUDP returns a generator for the given configuration.
func NewUDP(cfg UDPConfig) (*UDPGenerator, error) {
	if cfg.ActiveFlows <= 0 {
		return nil, fmt.Errorf("trace: ActiveFlows must be positive, got %d", cfg.ActiveFlows)
	}
	if cfg.Alpha <= 1.0 {
		return nil, fmt.Errorf("trace: Alpha must exceed 1 for finite mean flow size, got %g", cfg.Alpha)
	}
	if cfg.MinPackets <= 0 {
		cfg.MinPackets = 1
	}
	if cfg.MaxTrain <= 0 {
		cfg.MaxTrain = 256
	}
	g := &UDPGenerator{
		cfg:       cfg,
		rng:       prng.New(cfg.Seed ^ 0x554450),
		flows:     make([]core.Item, cfg.ActiveFlows),
		remaining: make([]int64, cfg.ActiveFlows),
	}
	for i := range g.flows {
		g.startFlow(i)
	}
	return g, nil
}

// startFlow replaces slot i with a fresh flow.
func (g *UDPGenerator) startFlow(i int) {
	g.nextID++
	g.flows[i] = core.Item(hash.Mix64(g.nextID ^ g.cfg.Seed))
	size := int64(g.rng.Pareto(g.cfg.Alpha, g.cfg.MinPackets))
	if size < 1 {
		size = 1
	}
	g.remaining[i] = size
}

// Next returns the flow identifier of the next packet. Packets arrive in
// trains: a uniformly chosen flow sends a run of consecutive packets
// whose length scales with its remaining backlog, so elephant flows
// claim an airtime share proportional to their size — the property that
// makes them heavy hitters within a measurement window.
func (g *UDPGenerator) Next() core.Item {
	if g.burst <= 0 {
		g.curSlot = int(g.rng.Uint64n(uint64(len(g.flows))))
		max := g.remaining[g.curSlot] / 4
		if max < 1 {
			max = 1
		}
		if max > int64(g.cfg.MaxTrain) {
			max = int64(g.cfg.MaxTrain)
		}
		g.burst = 1 + int64(g.rng.Uint64n(uint64(max)))
	}
	i := g.curSlot
	it := g.flows[i]
	g.remaining[i]--
	g.burst--
	if g.remaining[i] <= 0 {
		g.startFlow(i)
		g.burst = 0
	}
	return it
}

// Stream materializes n packets.
func (g *UDPGenerator) Stream(n int) []core.Item {
	s := make([]core.Item, n)
	for i := range s {
		s[i] = g.Next()
	}
	return s
}
