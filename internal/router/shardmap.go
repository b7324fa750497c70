package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// The shard map is the router's published partition contract: which
// shard IDs exist (and with how many virtual nodes, so anyone can
// rebuild the identical ring), which replicas serve each shard, and how
// healthy they are. A shard-map-aware freqmerge pulls it to discover
// the topology and to merge partition-exactly — exactly one replica per
// shard, never replica-summed.

// ReplicaStatus is one replica's health as the router last observed it.
type ReplicaStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Epoch is the replica's process epoch, 0 until first observed.
	Epoch uint64 `json:"epoch,omitempty"`
	// N is the replica's acknowledged stream position at last contact.
	N int64 `json:"n"`
	// Restarts counts observed epoch changes since the router started.
	Restarts int64 `json:"restarts"`
	// Failures counts failed forward/probe attempt sequences.
	Failures int64  `json:"failures"`
	Error    string `json:"error,omitempty"`
}

// ShardStatus is one partition: identity, health, and routing totals.
type ShardStatus struct {
	ID string `json:"id"`
	// Degraded means every replica is down: new writes for this shard
	// are shed (the rest of the tier keeps acknowledging).
	Degraded bool `json:"degraded"`
	// Routed counts items acknowledged by at least one replica.
	Routed int64 `json:"routed_items"`
	// Shed counts items dropped because no replica accepted them.
	Shed     int64           `json:"shed_items"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// ShardMap is the router's published topology (GET /shardmap).
type ShardMap struct {
	VNodes int           `json:"vnodes"`
	Shards []ShardStatus `json:"shards"`
}

// Ring rebuilds the hash ring the map describes. Any process holding
// the same map routes every item to the same shard the router does —
// the property partition-exact merging rests on.
func (m *ShardMap) Ring() (*Ring, error) {
	ids := make([]string, len(m.Shards))
	for i, s := range m.Shards {
		ids[i] = s.ID
	}
	return NewRing(ids, m.VNodes)
}

// ShardMap snapshots the router's current topology and health.
func (rt *Router) ShardMap() *ShardMap {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m := &ShardMap{VNodes: rt.ring.VNodes(), Shards: make([]ShardStatus, len(rt.shards))}
	for i, s := range rt.shards {
		st := ShardStatus{
			ID:       s.id,
			Degraded: true,
			Routed:   s.routedC.Value(),
			Shed:     s.shedC.Value(),
			Replicas: make([]ReplicaStatus, len(s.replicas)),
		}
		for j, rep := range s.replicas {
			if !rep.down {
				st.Degraded = false
			}
			st.Replicas[j] = ReplicaStatus{
				URL:      rep.url,
				Healthy:  !rep.down,
				Epoch:    rep.epoch,
				N:        rep.n,
				Restarts: rep.restarts,
				Failures: rep.failures,
				Error:    rep.lastErr,
			}
		}
		m.Shards[i] = st
	}
	return m
}

// FetchShardMap pulls a router's shard map (GET base/shardmap) — the
// discovery step of a shard-map-aware coordinator. A bare host:port
// base gets http:// prefixed, matching every other URL flag in the
// daemons.
func FetchShardMap(ctx context.Context, client *http.Client, base string) (*ShardMap, error) {
	if client == nil {
		// Not http.DefaultClient: the shared config bounds dialing and
		// header waits, so a black-holed router fails the fetch instead
		// of hanging freqmerge startup past its context.
		client = NewHTTPClient(0)
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+"/shardmap", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("router: shard map fetch: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var m ShardMap
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("router: bad shard map body: %v", err)
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("router: shard map has no shards")
	}
	return &m, nil
}
