package core

import (
	"sync"
	"sync/atomic"
	"time"

	"streamfreq/internal/ring"
)

// Pipelined is the plane in its staged mode, the lock-free ingest
// path: updates are staged into per-shard MPSC rings (ring.Ring) by the
// writers and applied by one drainer goroutine per shard, so concurrent
// writers never contend on a summary mutex — the write path is an
// atomic position claim, a WAL append (when persisting), and a scatter
// into pre-owned ring slots.
//
// Ordering is the whole design. One global cursor allocates positions
// across ALL rings: a claimed position occupies the same slot index in
// every shard's ring (staged empty where the batch has no items for
// that shard), so each drainer applies positions in global claim
// order. Per-shard apply order therefore equals the order a sequential
// scatter of the same batches would produce (a closed plane's
// synchronous path), which keeps the pipelined plane bit-identical to
// sequential UpdateBatch — the batched==scalar property survives
// verbatim (pinned by TestPipelinedMatchesSequential).
//
// Durability keeps the plane's WAL-append-before-apply contract,
// enforced by a ticket on the claim position: a writer that claimed
// position g waits for walTurn == g, appends, then advances walTurn —
// so log order equals claim order equals apply order, and the append
// happens before the batch is even staged, let alone applied. The log
// can only ever be AHEAD of memory, which is the direction crash
// recovery requires (a torn tail loses acknowledged-but-unapplied
// updates the same way it loses acknowledged-but-unsynced ones).
//
// Barriers (snapshots, checkpoints, restores, Drain) stage a control
// payload at one claimed position that parks every drainer exactly
// there, so all shards are observed at a single cross-shard stream
// position, and hold the WAL ticket there, so the log cut handed to
// persist.Checkpoint equals the cloned state's N exactly. Serving
// epochs are taken at barriers and are therefore claim-exact at
// refresh time. Close stops the drainers; the plane then writes
// synchronously, like Concurrent.
type Pipelined struct{ plane }

// DefaultRingCapacity is the staging-ring depth per shard: deep enough
// that writers only block when the drainer is a full ring behind,
// shallow enough that the staged backlog stays cache-resident.
const DefaultRingCapacity = 32

// ringShedItems is the per-slot buffer capacity bound: a slot buffer
// grown past two default batches by an outlier is shed on release
// instead of being pooled forever.
const ringShedItems = 2 * DefaultBatchSize

// pipeCtl is a barrier or shutdown control payload staged into every
// ring at one claim position.
type pipeCtl struct {
	stop     bool
	pending  atomic.Int32  // drainers yet to arrive
	quiesced chan struct{} // closed when the last drainer arrives
	release  chan struct{} // closed by the coordinator to resume
}

// NewPipelined builds a pipelined ingest plane with shards
// power-of-two shard summaries (the factory must produce mergeable
// summaries with identical parameters; for sketches, identical seeds)
// and starts one drainer goroutine per shard. Call Close to stop the drainers; a
// closed plane keeps working through the synchronous path.
func NewPipelined(shards int, factory func() Summary) *Pipelined {
	return newPipelined(shards, DefaultRingCapacity, factory)
}

// newPipelined is NewPipelined with the ring depth exposed for tests
// (tiny rings force wrap-around and backpressure).
func newPipelined(shards, ringCap int, factory func() Summary) *Pipelined {
	if shards <= 0 || shards&(shards-1) != 0 {
		panic("core: Pipelined requires a positive power-of-two shard count")
	}
	p := &Pipelined{plane{
		shards: make([]Summary, shards),
		locks:  make([]sync.Mutex, shards),
		rings:  make([]*ring.Ring[Item], shards),
		mask:   uint64(shards - 1),
	}}
	for i := range p.shards {
		p.shards[i] = factory()
		p.rings[i] = ring.New[Item](ringCap, ringShedItems)
	}
	p.wg.Add(shards)
	for i := range p.rings {
		go p.drainLoop(i)
	}
	return p
}

// drainLoop is shard i's consumer: it walks claim positions in order,
// applying batch payloads under the shard lock and parking at control
// payloads until the coordinator releases them.
func (p *Pipelined) drainLoop(i int) {
	defer p.wg.Done()
	r := p.rings[i]
	for pos := uint64(0); ; pos++ {
		s := r.Await(pos)
		switch s.Kind {
		case ring.KindBatch:
			p.locks[i].Lock()
			UpdateAll(p.shards[i], s.Items)
			p.locks[i].Unlock()
		case ring.KindWeighted:
			p.locks[i].Lock()
			p.shards[i].Update(s.X, s.Count)
			p.locks[i].Unlock()
		case ring.KindControl:
			ctl := s.Ctl.(*pipeCtl)
			if ctl.stop {
				r.Release(pos)
				return
			}
			if ctl.pending.Add(-1) == 0 {
				close(ctl.quiesced)
			}
			<-ctl.release
		}
		r.Release(pos)
	}
}

// awaitTurn spins until the WAL ticket reaches pos.
func (p *plane) awaitTurn(pos uint64) {
	for spins := 0; p.walTurn.Load() != pos; spins++ {
		ring.Backoff(spins)
	}
}

// claim takes the next position for n items, waiting for the WAL
// ticket to reach it when persisting; the caller appends, then passes
// the ticket on.
func (p *plane) claim(n int64) uint64 {
	pos := p.cursor.Add(1) - 1
	p.claimedN.Add(n)
	if p.persist != nil {
		p.awaitTurn(pos)
	}
	return pos
}

// publish stages a control payload at pos in every ring.
func (p *plane) publish(pos uint64, ctl *pipeCtl) {
	ctl.pending.Store(int32(len(p.rings)))
	for _, r := range p.rings {
		s := r.Acquire(pos)
		s.Kind = ring.KindControl
		s.Ctl = ctl
		r.Publish(pos)
	}
}

// stageBatch is UpdateBatch on a running staged plane: claim a
// position, append to the WAL in claim order, scatter the batch into
// the claimed slot of each shard ring in one hashing pass, and
// publish. It stages nothing and returns false on a synchronous plane.
func (p *plane) stageBatch(items []Item) bool {
	if !p.staging() {
		return false
	}
	defer p.life.RUnlock()
	pos := p.claim(int64(len(items)))
	if p.persist != nil {
		p.persist.AppendBatch(items)
		p.walTurn.Store(pos + 1)
	}
	if len(p.rings) == 1 {
		s := p.rings[0].Acquire(pos)
		s.Kind = ring.KindBatch
		s.Items = append(s.Items, items...)
		p.rings[0].Publish(pos)
		return true
	}
	// Acquire the position's slot in every ring up front (backpressure
	// happens here, before any item moves), then scatter with a single
	// hash-and-append pass — SlotAt is two loads once the slot is ours.
	for _, r := range p.rings {
		r.Acquire(pos).Kind = ring.KindEmpty
	}
	for _, x := range items {
		s := p.rings[shardIndex(x, p.mask)].SlotAt(pos)
		s.Kind = ring.KindBatch
		s.Items = append(s.Items, x)
	}
	for _, r := range p.rings {
		r.Publish(pos)
	}
	return true
}

// stageUpdate is Update on a running staged plane. A weighted update
// claims a full position — it must, to keep every ring's slot sequence
// gap-free — so the scalar path is not the fast path here any more
// than it is on the synchronous one.
func (p *plane) stageUpdate(x Item, count int64) bool {
	if !p.staging() {
		return false
	}
	defer p.life.RUnlock()
	pos := p.claim(count)
	if p.persist != nil {
		p.persist.AppendUpdate(x, count)
		p.walTurn.Store(pos + 1)
	}
	target := shardIndex(x, p.mask)
	for i, r := range p.rings {
		s := r.Acquire(pos)
		if uint64(i) == target {
			s.Kind = ring.KindWeighted
			s.X = x
			s.Count = count
		} else {
			s.Kind = ring.KindEmpty
		}
	}
	for _, r := range p.rings {
		r.Publish(pos)
	}
	return true
}

// Name implements Summary.
func (p *Pipelined) Name() string { return p.shards[0].Name() + "-pipelined" }

// ServeSnapshots enables snapshot-based reads with bounded staleness,
// as Concurrent.ServeSnapshots; refreshes quiesce the plane, so a
// refreshed view is exact as of every previously acknowledged update.
// Call before the plane is shared. Returns p for chaining.
func (p *Pipelined) ServeSnapshots(maxStale time.Duration) *Pipelined {
	p.serve(maxStale)
	return p
}

// Drain blocks until every update acknowledged before the call is
// applied to the shard summaries. On a closed plane it returns at
// once (Close already drained).
func (p *Pipelined) Drain() {
	p.quiesce(func(uint64) {})
}

// Close stops the drainers after applying everything acknowledged so
// far; writers wait until they have. Further updates are applied
// synchronously; further barriers observe the final state directly.
// Close is idempotent.
func (p *Pipelined) Close() {
	p.life.Lock()
	defer p.life.Unlock()
	if p.stopped {
		return
	}
	p.publish(p.cursor.Add(1)-1, &pipeCtl{stop: true})
	p.wg.Wait()
	p.stopped = true
}

// PipelineStats describes the ingest plane's live state; freqd /stats
// reports it.
type PipelineStats struct {
	// Shards is the shard (and drainer) count; RingCapacity the
	// staging-ring depth per shard.
	Shards       int
	RingCapacity int
	// ClaimedN is the acknowledged stream position, AppliedN the
	// position the shard summaries have reached; the difference is the
	// staged in-flight backlog.
	ClaimedN int64
	AppliedN int64
	// RingBytes is the staging rings' retained buffer capacity.
	RingBytes int
	// RingOccupancy is the total in-flight slot count across rings —
	// positions claimed by writers and not yet released by drainers
	// (the drainer lag in positions); ShardOccupancy breaks it out per
	// shard.
	RingOccupancy  int64
	ShardOccupancy []int64
}

// PipelineStats reports the plane's claimed/applied positions and
// staging footprint.
func (p *Pipelined) PipelineStats() PipelineStats {
	st := PipelineStats{
		Shards:         len(p.shards),
		RingCapacity:   p.rings[0].Cap(),
		ClaimedN:       p.LiveN(),
		AppliedN:       p.appliedN(),
		ShardOccupancy: make([]int64, len(p.rings)),
	}
	cursor := p.cursor.Load()
	for i, r := range p.rings {
		st.RingBytes += int(r.Retained()) * 8
		// Reads race benignly: the gauge wants a recent value, not a
		// barrier. Clamp at zero in case released advanced past the
		// cursor snapshot between the two loads.
		occ := int64(cursor) - int64(r.Released())
		if occ < 0 {
			occ = 0
		}
		st.ShardOccupancy[i] = occ
		st.RingOccupancy += occ
	}
	return st
}
