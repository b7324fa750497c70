package ring

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRingClaimOrderAcrossWrap drives 50k positions from 4 producers
// through an 8-slot ring: the consumer must see every position's
// payload in claim order, which exercises wrap-around (6250 laps) and
// full-ring backpressure (producers outrun the consumer constantly).
func TestRingClaimOrderAcrossWrap(t *testing.T) {
	r := New[uint64](8, 0)
	const total = 50_000
	var cursor atomic.Uint64
	done := make(chan []uint64, 1)
	go func() {
		out := make([]uint64, 0, total)
		for pos := uint64(0); pos < total; pos++ {
			s := r.Await(pos)
			if s.Kind == KindBatch {
				out = append(out, s.Items[0])
			}
			r.Release(pos)
		}
		done <- out
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := cursor.Add(1) - 1
				if pos >= total {
					return
				}
				s := r.Acquire(pos)
				s.Kind = KindBatch
				s.Items = append(s.Items, pos)
				r.Publish(pos)
			}
		}()
	}
	wg.Wait()
	out := <-done
	if len(out) != total {
		t.Fatalf("consumed %d payloads, want %d", len(out), total)
	}
	for i, v := range out {
		if v != uint64(i) {
			t.Fatalf("position %d carried payload %d: consumption order != claim order", i, v)
		}
	}
}

// TestRingBatchBuffersReusedAndShed pins the slot-buffer lifecycle: a
// buffer is retained (and its capacity accounted) across laps, and a
// buffer grown past the shed bound by one outlier batch is dropped on
// Release instead of being pooled forever.
func TestRingBatchBuffersReusedAndShed(t *testing.T) {
	r := New[uint64](2, 64)
	push := func(pos uint64, n int) {
		s := r.Acquire(pos)
		s.Kind = KindBatch
		for i := 0; i < n; i++ {
			s.Items = append(s.Items, uint64(i))
		}
		r.Publish(pos)
	}
	pop := func(pos uint64) { r.Await(pos); r.Release(pos) }

	push(0, 32)
	pop(0)
	retained := r.Retained()
	if retained < 32 || retained > 64 {
		t.Fatalf("after a 32-item batch, retained = %d elements, want [32,64]", retained)
	}
	// Same slot, next lap: the buffer must be reused, not regrown.
	s := r.Acquire(2)
	if cap(s.Items) < 32 || len(s.Items) != 0 {
		t.Fatalf("slot buffer not recycled: cap=%d len=%d", cap(s.Items), len(s.Items))
	}
	s.Kind = KindBatch
	r.Publish(2)
	pop(2)

	// Outlier: 1000 items blows past the 64-element shed bound.
	push(4, 1000)
	pop(4)
	if got := r.Retained(); got >= 1000 {
		t.Fatalf("oversized buffer was pooled: retained = %d elements", got)
	}
	if s := r.SlotAt(4); s.Items != nil {
		t.Fatalf("oversized buffer not shed from the slot")
	}
}

// TestRingConsumerParksAndWakes forces the park path: the consumer
// waits on an empty ring long enough to park, then a publish must wake
// it.
func TestRingConsumerParksAndWakes(t *testing.T) {
	r := New[uint64](4, 0)
	got := make(chan uint64, 1)
	go func() {
		s := r.Await(0)
		got <- s.Items[0]
		r.Release(0)
	}()
	time.Sleep(50 * time.Millisecond) // let the consumer spin out and park
	s := r.Acquire(0)
	s.Kind = KindBatch
	s.Items = append(s.Items, 7)
	r.Publish(0)
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("woke with payload %d, want 7", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never woke from park after publish")
	}
}

// TestRingRejectsBadCapacity pins the power-of-two contract.
func TestRingRejectsBadCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", capacity)
				}
			}()
			New[uint64](capacity, 0)
		}()
	}
}
