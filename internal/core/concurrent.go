package core

import (
	"sync"
	"time"
)

// Concurrent makes any Summary safe for concurrent use: it is the
// plane in its one-shard synchronous mode, so every write applies
// under the summary's one mutex and reads lock it too. For higher
// ingest parallelism use Pipelined, which partitions the stream across
// shard summaries, applies staged batches off the writers' path, and
// merges at query time.
//
// ServeSnapshots switches reads to an epoch-style snapshot path:
// queries are answered from an immutable clone of the summary that is
// refreshed at most once per staleness window, so a storm of readers
// costs the ingest path one clone per window instead of one lock
// acquisition per read.
type Concurrent struct{ plane }

// NewConcurrent wraps inner with a mutex.
func NewConcurrent(inner Summary) *Concurrent {
	return &Concurrent{plane{shards: []Summary{inner}, locks: make([]sync.Mutex, 1)}}
}

// Name implements Summary: the wrapped summary's own name.
func (c *Concurrent) Name() string { return c.shards[0].Name() }

// ServeSnapshots enables snapshot-based reads: Estimate, Query, and N are
// answered from an immutable deep copy of the inner summary instead of
// locking it, so readers never block ingest. The snapshot is refreshed on
// demand with bounded staleness: a read re-clones the summary (one lock
// acquisition, amortized over the whole window) only when the summary has
// changed since the snapshot was taken AND the snapshot is older than
// maxStale. maxStale = 0 means always-fresh: any read that observes a
// mutation re-clones, which keeps reads exact but makes heavy read
// traffic clone-bound — production servers should pick a real window
// (freqd defaults to 100ms).
//
// The inner summary must implement Snapshotter (every registry algorithm
// does); ServeSnapshots panics otherwise. Call it before the wrapper is
// shared between goroutines, like all configuration. It returns c for
// chaining.
func (c *Concurrent) ServeSnapshots(maxStale time.Duration) *Concurrent {
	c.serve(maxStale)
	return c
}
