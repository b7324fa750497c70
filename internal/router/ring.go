// Package router implements the partitioned write tier: an HTTP ingest
// front that consistent-hash-partitions items across freqd shards, so
// write load scales horizontally the way internal/cluster scales reads.
//
// Each shard owns a disjoint slice of the key space (the arc of the hash
// ring its virtual nodes cover), so the per-shard summaries are *exact
// partitions* of the stream: an item's every arrival lands on exactly
// one shard, and that shard's summary answers for it with the error
// bound of its own substream length n_p — tighter than the φ·N bound a
// single summary of the whole stream advertises. A shard-map-aware
// freqmerge (internal/cluster in partitioned mode) exploits exactly
// that: it routes point queries to the owning shard and unions
// threshold reports, never paying cross-partition merge noise.
//
// Availability comes from per-shard replica sets: every sub-batch is
// fanned to all live replicas of its shard, with bounded retry, timeout,
// and backoff per replica. A replica that keeps failing is marked down
// (writes stop paying its timeouts) and re-adopted by the health probe
// once it answers again; its process epoch (X-Freq-Epoch, the PR-4
// restart-detection machinery) makes recoveries observable as restart
// counters. Only when *every* replica of a shard is down is the shard
// degraded — its items are shed, counted, and surfaced, while the rest
// of the tier keeps acknowledging.
//
// Failover guarantee: a batch is acknowledged iff at least one replica
// of its shard accepted it, and a replica that fails is immediately
// removed from the live set — so every replica that has been live
// continuously since the stream began holds every acknowledged item of
// its shard. As long as one replica per shard either survives or
// recovers its full durable state (freqd -data-dir -fsync always), no
// acknowledged write is lost, which is what the chaos wall
// (TestRouterKillRecover) pins. Retries are at-least-once per replica: a
// replica that applied a batch but lost the ack may double-apply on
// retry, which inflates that replica only — the partition-exact merge
// reads one replica per shard, so divergence is visible in /shardmap
// (replica stream positions) and never double-counted in a merged view.
package router

import (
	"fmt"
	"sort"
	"strconv"

	"streamfreq/internal/core"
	"streamfreq/internal/hash"
)

// DefaultVNodes is the virtual-node count per shard when Options does
// not choose one: enough points that the largest arc over-allocates a
// shard by a few percent, cheap enough that ring construction and the
// per-item binary search stay negligible.
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the 64-bit ring owned by
// a shard.
type ringPoint struct {
	hash  uint64
	shard uint32
}

// Ring is a consistent-hash ring over shard IDs with virtual nodes. It
// is immutable after construction and safe for concurrent use; routing
// is a pure function of (shard IDs, vnodes, item), so any process that
// builds a Ring from the same inputs — the router splitting writes, a
// coordinator routing reads, a property test replaying history — routes
// every item identically.
type Ring struct {
	ids    []string
	vnodes int
	points []ringPoint
}

// NewRing builds a ring over the given shard IDs with vnodes virtual
// nodes per shard (0 selects DefaultVNodes). IDs must be non-empty and
// unique — the ring positions are derived from them, so two shards with
// the same ID would own the same arcs.
func NewRing(ids []string, vnodes int) (*Ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("router: a ring needs at least one shard")
	}
	if len(ids) > 1<<16 {
		return nil, fmt.Errorf("router: %d shards exceeds the %d-shard limit", len(ids), 1<<16)
	}
	if vnodes == 0 {
		vnodes = DefaultVNodes
	}
	if vnodes < 1 || vnodes > 1<<12 {
		return nil, fmt.Errorf("router: vnodes must be in [1,%d], got %d", 1<<12, vnodes)
	}
	seen := make(map[string]bool, len(ids))
	r := &Ring{ids: append([]string(nil), ids...), vnodes: vnodes}
	r.points = make([]ringPoint, 0, len(ids)*vnodes)
	for i, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("router: shard %d has an empty ID", i)
		}
		if seen[id] {
			return nil, fmt.Errorf("router: duplicate shard ID %q (its arcs would collide)", id)
		}
		seen[id] = true
		for v := 0; v < vnodes; v++ {
			h := uint64(core.HashString(id + "#" + strconv.Itoa(v)))
			r.points = append(r.points, ringPoint{hash: h, shard: uint32(i)})
		}
	}
	// Ties between distinct (id, vnode) pairs are astronomically unlikely
	// but must still be deterministic: break by shard index so the same
	// inputs always produce the same ring.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return len(r.ids) }

// VNodes returns the virtual-node count per shard.
func (r *Ring) VNodes() int { return r.vnodes }

// Shard returns the index of the shard owning item it: the first virtual
// node at or clockwise of the item's mixed hash. Raw item identifiers
// can be dense integers (sequential streams), so the position is the
// SplitMix64 finalizer of the item, not the item itself — without the
// mix, consecutive items would all land on one arc.
func (r *Ring) Shard(it core.Item) int {
	h := hash.Mix64(uint64(it))
	// First point with hash >= h, wrapping past the last point to the
	// first (the ring property).
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].shard)
}

// Split appends each item of batch to its owning shard's buffer and
// returns the buffers (append may grow them). perShard must have exactly
// Shards() entries; callers reuse the buffers across batches by
// truncating them to zero length first. Order within each shard's buffer
// is the arrival order of the batch — the split is a deterministic
// order-preserving partition, which FuzzShardSplit pins: the
// concatenation of the per-shard buffers is a permutation of batch with
// no item lost, duplicated, or misrouted.
func (r *Ring) Split(batch []core.Item, perShard [][]core.Item) [][]core.Item {
	if len(perShard) != len(r.ids) {
		panic(fmt.Sprintf("router: Split needs %d per-shard buffers, got %d", len(r.ids), len(perShard)))
	}
	for _, it := range batch {
		s := r.Shard(it)
		perShard[s] = append(perShard[s], it)
	}
	return perShard
}
