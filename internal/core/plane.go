package core

import (
	"sync"
	"sync/atomic"
	"time"

	"streamfreq/internal/ring"
)

// plane is the one concurrency plane behind Concurrent and Pipelined:
// shard summaries partitioned by item hash, each behind its own lock,
// one claim cursor ordering every write, and the barrier, persistence
// and snapshot-serving machinery built on that order.
//
// A plane writes in one of two modes. Synchronous — Concurrent from
// birth, a Pipelined once closed — a writer holds every shard lock
// while it logs, scatters and applies, so writes are serialized, log
// order is apply order, and a one-shard write takes exactly one mutex.
// Staged — a running Pipelined — writers claim positions and stage
// into per-shard rings that drainer goroutines apply (see Pipelined).
// Either way a barrier (quiesce) freezes the plane at one cross-shard
// stream position, holding every shard lock, which is what snapshots,
// checkpoints and restores observe.
type plane struct {
	shards []Summary
	locks  []sync.Mutex
	mask   uint64

	// rings and their drainers exist only on a Pipelined. life gates
	// the staging path: writers and barriers hold its read side across
	// claim+stage+publish; Close holds the write side while it stops
	// the drainers, after which writes are synchronous.
	rings   []*ring.Ring[Item]
	life    sync.RWMutex
	stopped bool
	wg      sync.WaitGroup

	// cursor counts claims (batches and barriers) and doubles as the
	// serving epoch's version clock: an epoch taken at cursor value v is
	// clean while the cursor still reads v. claimedN is the acknowledged
	// stream position in items.
	cursor   atomic.Uint64
	claimedN atomic.Int64

	// persist, when set by PersistTo, receives every batch before it is
	// applied and every weighted update once applied. On the staged
	// path walTurn is the WAL ticket: the claim position allowed to
	// append next.
	persist Persister
	walTurn atomic.Uint64

	// Snapshot serving: serving and maxStale are set once by
	// ServeSnapshots before the plane is shared; snap holds the current
	// immutable epoch.
	serving   bool
	maxStale  time.Duration
	snap      atomic.Pointer[epoch]
	refreshMu sync.Mutex
	refreshes atomic.Int64
}

// epoch is one immutable serving view: per-shard clones taken at one
// quiesced position, the cursor value they are exact at, and when
// they were taken. A one-shard epoch serves its clone itself, so the
// summary's own optional read surfaces (hierarchical queries, window
// stats, horizons) stay visible through the view; a sharded epoch
// serves a shardedSnapshot over its clones.
type epoch struct {
	view    ReadView
	views   []Summary
	version uint64
	taken   time.Time
}

func (p *plane) lockAll() {
	for i := range p.locks {
		p.locks[i].Lock()
	}
}

func (p *plane) unlockAll() {
	for i := range p.locks {
		p.locks[i].Unlock()
	}
}

// staging enters the staged write path: on a running staged plane it
// returns true holding life's read side, which the caller releases;
// on a synchronous plane it returns false.
func (p *plane) staging() bool {
	if p.rings == nil {
		return false
	}
	p.life.RLock()
	if p.stopped {
		p.life.RUnlock()
		return false
	}
	return true
}

// applied ends a synchronous write. The stream position of a
// synchronous plane is its summaries' own N, so it moves only when the
// summary returns: a panicking apply (a forged negative count replayed
// into a counter summary) leaves it where it was. Only a serving plane
// needs its version clock advanced.
func (p *plane) applied() {
	if p.serving {
		p.cursor.Add(1)
	}
}

// UpdateBatch implements BatchUpdater. A staged plane acknowledges the
// batch once it is staged; a synchronous one applies it under every
// shard lock, through the summaries' own batch paths. items is copied
// or consumed before return and may be reused by the caller.
func (p *plane) UpdateBatch(items []Item) {
	if len(items) == 0 || p.rings != nil && p.stageBatch(items) {
		return
	}
	p.lockAll()
	defer p.unlockAll()
	if p.persist != nil {
		p.persist.AppendBatch(items)
	}
	if p.mask == 0 {
		UpdateAll(p.shards[0], items)
	} else {
		bufs := make([][]Item, len(p.shards))
		for _, x := range items {
			i := shardIndex(x, p.mask)
			bufs[i] = append(bufs[i], x)
		}
		for i, b := range bufs {
			if len(b) > 0 {
				UpdateAll(p.shards[i], b)
			}
		}
	}
	p.applied()
}

// Update implements Summary for weighted (turnstile) arrivals; count
// may be negative where the summary allows it. Unlike a batch, a
// weighted update is applied before it is logged, under the lock that
// orders it (a barrier on a staged plane, whose drainers never see
// it), so log order is still apply order and a count the summary
// rejects panics in the caller without reaching the log.
func (p *plane) Update(x Item, count int64) {
	if p.rings != nil && p.staging() {
		defer p.life.RUnlock()
		p.barrier(func(uint64) {
			p.update(shardIndex(x, p.mask), x, count)
			p.claimedN.Add(count)
		})
		return
	}
	// At one shard its lock is every lock: take it directly, since this
	// is the scalar hot path.
	var i uint64
	if p.mask == 0 {
		p.locks[0].Lock()
		defer p.locks[0].Unlock()
	} else {
		i = shardIndex(x, p.mask)
		p.lockAll()
		defer p.unlockAll()
	}
	p.update(i, x, count)
	p.applied()
}

// update applies a weighted update to shard i, then logs it; the
// caller holds the shard's lock.
func (p *plane) update(i uint64, x Item, count int64) {
	p.shards[i].Update(x, count)
	if p.persist != nil {
		p.persist.AppendUpdate(x, count)
	}
}

// quiesce runs f with the plane frozen at one stream position — every
// write acknowledged before it applied, none after — and every shard
// lock held. f receives the cursor value that position ends at, the
// version of an epoch cloned there.
func (p *plane) quiesce(f func(version uint64)) {
	if p.staging() {
		defer p.life.RUnlock()
		p.barrier(f)
		return
	}
	p.lockAll()
	defer p.unlockAll()
	f(p.cursor.Load())
}

// barrier is quiesce on a running staged plane, whose life read side
// the caller holds: it parks the drainers at a claimed barrier
// position, holding the WAL ticket there so the log position f
// observes equals the applied state.
func (p *plane) barrier(f func(version uint64)) {
	pos := p.cursor.Add(1) - 1
	if p.persist != nil {
		p.awaitTurn(pos)
		defer p.walTurn.Store(pos + 1)
	}
	ctl := &pipeCtl{quiesced: make(chan struct{}), release: make(chan struct{})}
	defer close(ctl.release)
	p.publish(pos, ctl)
	<-ctl.quiesced
	p.lockAll()
	defer p.unlockAll()
	f(pos + 1)
}

// clones deep-copies every shard; the caller holds the plane quiesced.
func (p *plane) clones() []Summary {
	views := make([]Summary, len(p.shards))
	for i, sh := range p.shards {
		views[i] = mustSnapshot(sh)
	}
	return views
}

func sumN(shards []Summary) int64 {
	var n int64
	for _, s := range shards {
		n += s.N()
	}
	return n
}

// serve enables snapshot-based reads with bounded staleness; see
// Concurrent.ServeSnapshots.
func (p *plane) serve(maxStale time.Duration) {
	p.serving = true
	p.maxStale = maxStale
	p.refresh(true)
}

// reader returns the epoch view reads are answered from, refreshing
// it when it is both dirty and past the staleness bound; nil when
// snapshot serving is off.
func (p *plane) reader() ReadView {
	if !p.serving {
		return nil
	}
	e := p.snap.Load()
	if e.version == p.cursor.Load() || time.Since(e.taken) <= p.maxStale {
		return e.view
	}
	return p.refresh(false).view
}

// refresh publishes an epoch cloned at a fresh barrier. Refreshers
// serialize on refreshMu; unless forced, one that finds the current
// epoch already clean (another reader refreshed while it waited)
// reuses it, so a read storm pays one clone.
func (p *plane) refresh(force bool) *epoch {
	p.refreshMu.Lock()
	defer p.refreshMu.Unlock()
	if cur := p.snap.Load(); !force && cur.version == p.cursor.Load() {
		return cur
	}
	var e *epoch
	p.quiesce(func(version uint64) {
		views := p.clones()
		e = &epoch{view: views[0], views: views, version: version, taken: time.Now()}
		if len(views) > 1 {
			e.view = &shardedSnapshot{views: views, mask: p.mask}
		}
	})
	p.snap.Store(e)
	p.refreshes.Add(1)
	return e
}

// RefreshSnapshot forces a fresh serving epoch, regardless of the
// staleness bound, and returns its view; nil when snapshot serving is
// not enabled. Servers call it to cut over deterministically — freqd's
// POST /refresh, or tests asserting exact post-ingest reads.
func (p *plane) RefreshSnapshot() ReadView {
	if !p.serving {
		return nil
	}
	return p.refresh(true).view
}

// ServingView returns the current serving epoch as an immutable
// ReadView (refreshing it first if it is dirty past the staleness
// bound), or nil when snapshot serving is not enabled. Pin the
// returned view to make a multi-read sequence internally consistent:
// each of Estimate/Query/N on the plane itself may cross a refresh
// boundary between calls.
func (p *plane) ServingView() ReadView { return p.reader() }

// SnapshotStats reports the serving epoch's freshness; all zero when
// serving is not enabled.
func (p *plane) SnapshotStats() SnapshotStats {
	if !p.serving {
		return SnapshotStats{}
	}
	e := p.snap.Load()
	return SnapshotStats{
		Serving:   true,
		AsOfN:     e.view.N(),
		Age:       Millis(time.Since(e.taken)),
		Refreshes: p.refreshes.Load(),
		MaxStale:  Millis(p.maxStale),
	}
}

// Snapshot implements Snapshotter: an independent deep copy of the
// whole stream's state, cloned at one barrier — the shard clones
// merged into one summary when there are several, which requires the
// shard summaries to implement Merger (it panics otherwise). Unlike the
// serving reads it always clones fresh state, so callers can
// serialize or merge the copy while ingest continues.
func (p *plane) Snapshot() Summary {
	views := p.SnapshotBarrier(nil)
	merged := views[0]
	if len(views) == 1 {
		return merged
	}
	m, ok := merged.(Merger)
	if !ok {
		panic("core: Pipelined.Snapshot requires a Merger inner summary, " + merged.Name() + " is not")
	}
	for _, v := range views[1:] {
		if err := m.Merge(v); err != nil {
			panic("core: Pipelined.Snapshot merge failed: " + err.Error())
		}
	}
	return merged
}

// LiveN reports the acknowledged stream position, bypassing the
// serving epoch, so ops surfaces (freqd /stats) can report it next to
// the epoch's AsOfN without forcing a refresh. On a running staged
// plane it is the claimed position, which may lead the applied one by
// the in-flight ring occupancy; on a synchronous plane every
// acknowledged write is applied, so it is the summaries' N.
func (p *plane) LiveN() int64 {
	if p.staging() {
		defer p.life.RUnlock()
		return p.claimedN.Load()
	}
	return p.appliedN()
}

// Estimate implements Summary: from the serving epoch when enabled
// (never blocking ingest), otherwise under the item's shard lock.
// Locked reads see the applied prefix; on a staged plane use a barrier
// (Drain, RefreshSnapshot) first when claim-exactness matters.
func (p *plane) Estimate(x Item) int64 {
	if v := p.reader(); v != nil {
		return v.Estimate(x)
	}
	i := shardIndex(x, p.mask)
	p.locks[i].Lock()
	defer p.locks[i].Unlock()
	return p.shards[i].Estimate(x)
}

// Query implements Summary as the union of the shards' reports (the
// epoch's when serving); see Estimate for the locked read path.
func (p *plane) Query(threshold int64) []ItemCount {
	if v := p.reader(); v != nil {
		return v.Query(threshold)
	}
	if len(p.shards) == 1 {
		p.locks[0].Lock()
		defer p.locks[0].Unlock()
		return p.shards[0].Query(threshold)
	}
	var out []ItemCount
	for i := range p.shards {
		p.locks[i].Lock()
		out = append(out, p.shards[i].Query(threshold)...)
		p.locks[i].Unlock()
	}
	SortByCountDesc(out)
	return out
}

// N implements Summary: the serving epoch's stream length when
// serving, so thresholds computed as φ·N() are consistent with the
// state Query answers from; otherwise the applied position (LiveN
// reports the acknowledged one).
func (p *plane) N() int64 {
	if v := p.reader(); v != nil {
		return v.N()
	}
	return p.appliedN()
}

func (p *plane) appliedN() int64 {
	var n int64
	for i := range p.shards {
		p.locks[i].Lock()
		n += p.shards[i].N()
		p.locks[i].Unlock()
	}
	return n
}

// Bytes implements Summary: the shard footprints, the staging rings'
// retained buffer capacity and, when serving, the retained epoch.
func (p *plane) Bytes() int {
	var total int
	for i := range p.shards {
		p.locks[i].Lock()
		total += p.shards[i].Bytes()
		p.locks[i].Unlock()
	}
	for _, r := range p.rings {
		total += int(r.Retained()) * 8 // Item is 8 bytes
	}
	if p.serving {
		for _, view := range p.snap.Load().views {
			total += view.Bytes()
		}
	}
	return total
}

// shardedSnapshot is the ReadView of a sharded epoch: one clone per
// shard, routed by the same item hash, so snapshot reads have exactly
// the semantics of locked reads (Estimate routes to the item's shard,
// Query unions the shard reports). The clones are taken at one barrier
// position, so the view is a single cross-shard cut.
type shardedSnapshot struct {
	views []Summary
	mask  uint64
}

// Estimate implements ReadView by routing to the item's shard view.
func (v *shardedSnapshot) Estimate(x Item) int64 {
	return v.views[shardIndex(x, v.mask)].Estimate(x)
}

// Query implements ReadView as the union of the shard views' reports.
func (v *shardedSnapshot) Query(threshold int64) []ItemCount {
	var out []ItemCount
	for _, view := range v.views {
		out = append(out, view.Query(threshold)...)
	}
	SortByCountDesc(out)
	return out
}

// N implements ReadView as the sum of the shard views' totals.
func (v *shardedSnapshot) N() int64 { return sumN(v.views) }

// shardIndex spreads low-entropy item spaces across shards with the
// SplitMix64 finalizer. Sharding by item (not round-robin) keeps each
// item's entire count in a single shard, so per-shard guarantees
// translate to global guarantees with per-shard error ε_shard = ε (each
// shard sees a substream).
func shardIndex(x Item, mask uint64) uint64 {
	v := uint64(x)
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	v ^= v >> 31
	return v & mask
}
