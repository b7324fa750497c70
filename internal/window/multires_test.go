package window

import (
	"testing"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
)

// fakeClock is a manually advanced wall clock.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newTestMultiRes(t *testing.T, clk *fakeClock, horizons ...time.Duration) *MultiRes {
	t.Helper()
	m, err := NewMultiRes(MultiResConfig{
		Horizons: horizons,
		Blocks:   4,
		Factory:  func() core.Summary { return counters.NewSpaceSavingHeap(64) },
		Now:      clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMultiResConfigValidation(t *testing.T) {
	factory := func() core.Summary { return counters.NewSpaceSavingHeap(8) }
	if _, err := NewMultiRes(MultiResConfig{Factory: factory}); err == nil {
		t.Error("no horizons must be rejected")
	}
	if _, err := NewMultiRes(MultiResConfig{Horizons: []time.Duration{time.Minute}}); err == nil {
		t.Error("nil factory must be rejected")
	}
	if _, err := NewMultiRes(MultiResConfig{
		Horizons: []time.Duration{time.Minute, time.Minute}, Factory: factory,
	}); err == nil {
		t.Error("duplicate horizons must be rejected")
	}
}

func TestMultiResHorizonViews(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	m := newTestMultiRes(t, clk, time.Minute, time.Hour)

	old := []core.Item{1, 1, 1, 2}
	m.UpdateBatch(old)
	// Step past the 1m horizon but stay inside 1h.
	clk.advance(5 * time.Minute)
	recent := []core.Item{7, 7, 8}
	m.UpdateBatch(recent)

	short, err := m.HorizonView(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if short.Estimate(7) == 0 || short.Estimate(1) != 0 {
		t.Fatalf("1m view: Estimate(7)=%d Estimate(1)=%d; want recent items only",
			short.Estimate(7), short.Estimate(1))
	}
	if short.N() != int64(len(recent)) {
		t.Fatalf("1m WindowN = %d, want %d", short.N(), len(recent))
	}
	long, err := m.HorizonView(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if long.Estimate(1) == 0 || long.Estimate(7) == 0 {
		t.Fatal("1h view must cover both batches")
	}
	if long.N() != int64(len(old)+len(recent)) {
		t.Fatalf("1h WindowN = %d, want %d", long.N(), len(old)+len(recent))
	}
	if m.N() != int64(len(old)+len(recent)) {
		t.Fatalf("lifetime N = %d, want %d", m.N(), len(old)+len(recent))
	}
	if _, err := m.HorizonView(2 * time.Hour); err == nil {
		t.Fatal("unconfigured horizon must error")
	}
}

func TestMultiResBucketRecycling(t *testing.T) {
	clk := &fakeClock{t: time.Unix(50_000, 0)}
	m := newTestMultiRes(t, clk, time.Minute)
	// Write continuously for several horizon lengths; the 1m view's count
	// must stay bounded by what fits in a minute, proving slots recycle.
	for i := 0; i < 300; i++ {
		m.Update(core.Item(i%10), 1)
		clk.advance(time.Second)
	}
	v, err := m.HorizonView(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// 4 blocks of 15s: the view's N counts the 4 newest blocks, between
	// 45s and 60s of arrivals at 1/s.
	if n := v.N(); n < 40 || n > 70 {
		t.Fatalf("1m WindowN after 300s of 1/s arrivals = %d, want ≈45–60", n)
	}
	if m.N() != 300 {
		t.Fatalf("lifetime N = %d, want 300", m.N())
	}
}

func TestMultiResSnapshotIndependence(t *testing.T) {
	clk := &fakeClock{t: time.Unix(90_000, 0)}
	m := newTestMultiRes(t, clk, time.Minute)
	m.UpdateBatch([]core.Item{1, 2, 3})
	snap := m.Snapshot().(*MultiRes)
	m.UpdateBatch([]core.Item{4, 4, 4, 4})
	sv, err := snap.HorizonView(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Estimate(4) != 0 {
		t.Fatal("parent update leaked into snapshot")
	}
	if sv.N() != 3 {
		t.Fatalf("snapshot WindowN = %d, want 3", sv.N())
	}
	mv, _ := m.HorizonView(time.Minute)
	if mv.Estimate(4) == 0 {
		t.Fatal("parent lost its own update")
	}
}
