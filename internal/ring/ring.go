// Package ring implements the staging ring of the pipelined ingest
// plane: a fixed-capacity MPSC ring buffer in the Vyukov bounded-queue
// style, specialized for batch hand-off from many writers to one
// drainer.
//
// Coordination is a single sequence stamp per slot, no mutex anywhere:
//
//   - slot i starts with seq = i;
//   - a producer that has claimed global position pos owns slot
//     pos&mask once seq == pos (Acquire spins until then — that is the
//     full-ring backpressure), fills the payload, and publishes with
//     seq = pos+1;
//   - the single consumer walks pos = 0,1,2,…, waits at slot pos&mask
//     for seq == pos+1 (Await), applies the payload, and frees the slot
//     for its next lap with seq = pos+capacity (Release).
//
// Positions are claimed outside the ring (the pipeline holds one global
// cursor so the same position indexes every shard's ring — see
// core.Pipelined), which is what makes per-ring consumption order equal
// global claim order and keeps the pipelined plane bit-identical to
// sequential ingest.
//
// Steady state allocates nothing: slot payload buffers grow amortized
// and are reused lap after lap; a buffer left oversized by a huge batch
// is shed on Release (capacity above the shed bound is returned to the
// GC) so one outlier cannot pin its high-water mark forever. Retained
// reports the currently pooled payload capacity for footprint
// accounting.
//
// The consumer parks after a bounded spin and is woken by the next
// publish (parked flag + one-token channel, re-checked on both sides so
// a publish between "decide to park" and "sleep" is never lost);
// producers under backpressure spin with escalating yields instead,
// since a full ring means the consumer is actively draining.
package ring

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Slot payload kinds. The zero kind is an empty batch: a position
// claimed in every ring but carrying items for only some of them (the
// pipeline stages batches that way) publishes KindEmpty elsewhere, and
// the consumer just skips it.
const (
	// KindEmpty carries nothing; the consumer releases and moves on.
	KindEmpty = iota
	// KindBatch carries Items, unit count each, in stream order.
	KindBatch
	// KindControl carries Ctl, a pipeline control payload (quiesce
	// barrier or shutdown); the consumer hands it back to the pipeline.
	KindControl
)

// Slot is one ring cell. Between Acquire and Publish it is owned by
// exactly one producer; between Await returning it and Release it is
// owned by the consumer; the seq transitions carry the happens-before
// edges, so the payload fields need no atomics.
type Slot[T any] struct {
	seq atomic.Uint64

	// Kind says which payload fields are live (Kind* constants).
	Kind int
	// Items is the KindBatch payload. Producers append into it
	// (Acquire hands it over length 0 with capacity from earlier
	// laps); Release recycles or sheds it.
	Items []T
	// Ctl is the KindControl payload, opaque to the ring.
	Ctl any

	// retained is the capacity this slot was last accounted at, in
	// elements. Consumer-private (only Release touches it).
	retained int
}

// Ring is one MPSC staging ring. Producers share it through
// Acquire/Publish at externally claimed positions; exactly one
// goroutine may consume through Await/Release.
type Ring[T any] struct {
	mask  uint64
	slots []Slot[T]

	// shedCap is the per-slot payload capacity bound, in elements;
	// Release sheds buffers above it. 0 keeps every buffer.
	shedCap int
	// retained is the pooled payload capacity across slots, in
	// elements (maintained by Release, read by Retained).
	retained atomic.Int64

	// released is the consumer's progress: the position one past the
	// last Release. Single consumer, so a plain store; readers (the
	// pipeline's occupancy gauge) only need a recent value.
	released atomic.Uint64

	// parked/wake implement the consumer sleep—publish wake handshake.
	parked atomic.Bool
	wake   chan struct{}
}

// New builds a ring with capacity slots (a positive power of two).
// Payload buffers whose capacity exceeds shedCap elements are shed on
// Release; shedCap <= 0 retains all buffers.
func New[T any](capacity, shedCap int) *Ring[T] {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic("ring: capacity must be a positive power of two")
	}
	r := &Ring[T]{
		mask:    uint64(capacity - 1),
		slots:   make([]Slot[T], capacity),
		shedCap: shedCap,
		wake:    make(chan struct{}, 1),
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring's slot count.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Retained returns the pooled payload capacity, in elements.
func (r *Ring[T]) Retained() int64 { return r.retained.Load() }

// Released returns the consumer's progress — the position one past the
// last released slot. The pipeline's occupancy gauge reads it against
// the claim cursor to report drainer lag in positions.
func (r *Ring[T]) Released() uint64 { return r.released.Load() }

// SlotAt returns the slot for position pos without any ordering check.
// Only valid between Acquire(pos) and Publish(pos) on the same
// position (producers use it to revisit their claimed slot cheaply
// during a scatter pass).
func (r *Ring[T]) SlotAt(pos uint64) *Slot[T] { return &r.slots[pos&r.mask] }

// Acquire blocks until the slot for claimed position pos is free (the
// consumer has released its previous lap) and returns it for filling.
// The wait is the ring's backpressure: it only spins while the ring is
// full, i.e. the drainer is behind by the full ring capacity.
func (r *Ring[T]) Acquire(pos uint64) *Slot[T] {
	s := &r.slots[pos&r.mask]
	for spins := 0; s.seq.Load() != pos; spins++ {
		Backoff(spins)
	}
	s.Items = s.Items[:0]
	return s
}

// Publish makes the slot claimed at pos visible to the consumer and
// wakes it if it parked.
func (r *Ring[T]) Publish(pos uint64) {
	r.slots[pos&r.mask].seq.Store(pos + 1)
	if r.parked.CompareAndSwap(true, false) {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// parkAfter is how many spin rounds the consumer burns before parking.
const parkAfter = 256

// Await blocks until the slot at consumer position pos is published
// and returns it. Single consumer only.
func (r *Ring[T]) Await(pos uint64) *Slot[T] {
	s := &r.slots[pos&r.mask]
	want := pos + 1
	for spins := 0; ; spins++ {
		if s.seq.Load() == want {
			return s
		}
		if spins < parkAfter {
			Backoff(spins)
			continue
		}
		// Park. The producer side re-checks parked after its seq store
		// and we re-check seq after setting parked, so whichever wrote
		// second sees the other's write — a publish can never slip
		// between the decision to sleep and the sleep.
		r.parked.Store(true)
		if s.seq.Load() == want {
			r.parked.Store(false)
			return s
		}
		<-r.wake
		spins = 0
	}
}

// Release frees the slot consumed at pos for the producers' next lap,
// recycling its payload buffer (or shedding it when it outgrew the
// bound) and settling the retained-capacity account.
func (r *Ring[T]) Release(pos uint64) {
	s := &r.slots[pos&r.mask]
	s.Kind = KindEmpty
	s.Ctl = nil
	c := cap(s.Items)
	if r.shedCap > 0 && c > r.shedCap {
		s.Items = nil
		c = 0
	} else {
		s.Items = s.Items[:0]
	}
	if c != s.retained {
		r.retained.Add(int64(c - s.retained))
		s.retained = c
	}
	r.released.Store(pos + 1)
	s.seq.Store(pos + uint64(len(r.slots)))
}

// Backoff burns one wait round: busy-spin first, then yield the
// processor, then sleep — the sleep tier matters on machines with
// fewer cores than spinning goroutines, where pure spinning would
// starve the goroutine being waited on.
func Backoff(spins int) {
	switch {
	case spins < 64:
		// busy
	case spins < 1024:
		runtime.Gosched()
	default:
		time.Sleep(10 * time.Microsecond)
	}
}
