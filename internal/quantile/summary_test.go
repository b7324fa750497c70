package quantile

import (
	"bytes"
	"errors"
	"math"
	"sort"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/prng"
)

// zipfStream materializes a deterministic skewed integer stream over a
// small ordered universe, mirroring the root package's test streams.
func zipfStream(seed uint64, n int, universe uint64) []core.Item {
	rng := prng.New(seed)
	items := make([]core.Item, n)
	for i := range items {
		// Pareto-ish skew folded into the universe keeps a few values heavy.
		v := uint64(rng.Pareto(1.1, 1))
		items[i] = core.Item(v % universe)
	}
	return items
}

func TestGKSummaryContract(t *testing.T) {
	g := New(0.01)
	var s core.Summary = g // compile-time: GK is a core.Summary
	items := zipfStream(3, 30000, 1024)
	exact := map[core.Item]int64{}
	for _, it := range items {
		s.Update(it, 1)
		exact[it]++
	}
	if s.Name() != "GK" {
		t.Fatalf("Name() = %q, want GK", s.Name())
	}
	if s.N() != int64(len(items)) {
		t.Fatalf("N() = %d, want %d", s.N(), len(items))
	}
	if s.Bytes() <= 0 {
		t.Fatal("Bytes() not positive")
	}
	slack := int64(2*g.Epsilon()*float64(s.N())) + 2
	for _, probe := range []core.Item{0, 1, 2, 5, 100, 1023} {
		est := s.Estimate(probe)
		if diff := est - exact[probe]; diff > slack || diff < -slack {
			t.Errorf("Estimate(%d) = %d, exact %d, beyond ±%d", probe, est, exact[probe], slack)
		}
	}
	// Query at a heavy threshold: every value whose true count clears
	// threshold+slack must be reported (rank error can hide borderline
	// values, never clearly-heavy ones).
	threshold := s.N() / 20
	got := map[core.Item]bool{}
	report := s.Query(threshold)
	for i, ic := range report {
		got[ic.Item] = true
		if i > 0 && report[i-1].Count < ic.Count {
			t.Fatal("Query report not in descending count order")
		}
	}
	for it, c := range exact {
		if c >= threshold+slack && !got[it] {
			t.Errorf("Query(%d) missed value %d with true count %d", threshold, it, c)
		}
	}
}

func TestGKUpdateNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative count")
		}
	}()
	New(0.01).Update(1, -1)
}

func TestGKBatchMatchesScalar(t *testing.T) {
	items := zipfStream(5, 20000, 4096)
	scalar, batched := New(0.02), New(0.02)
	for _, it := range items {
		scalar.Update(it, 1)
	}
	core.UpdateBatches(batched, items, 1000)
	a, err := scalar.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := batched.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("batched ingest is not bit-identical to scalar ingest")
	}
}

func TestGKCloneFidelityAndIndependence(t *testing.T) {
	g := New(0.02)
	items := zipfStream(7, 10000, 512)
	core.UpdateAll(g, items)
	snap := g.Snapshot().(*GK)
	a, _ := g.MarshalBinary()
	b, _ := snap.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("snapshot does not encode identically to parent")
	}
	// Mutating the parent must not move the snapshot, and vice versa.
	core.UpdateAll(g, items[:100])
	if c, _ := snap.MarshalBinary(); !bytes.Equal(b, c) {
		t.Fatal("parent update leaked into snapshot")
	}
	snap.Update(1, 5)
	if c, _ := g.MarshalBinary(); bytes.Equal(b, c) {
		t.Fatal("parent did not advance")
	}
}

func TestGKMergeAccuracy(t *testing.T) {
	a, b := New(0.01), New(0.01)
	sa := zipfStream(11, 20000, 2048)
	sb := zipfStream(13, 30000, 2048)
	core.UpdateAll(a, sa)
	core.UpdateAll(b, sb)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != int64(len(sa)+len(sb)) {
		t.Fatalf("merged N = %d, want %d", a.N(), len(sa)+len(sb))
	}
	var union []float64
	for _, it := range sa {
		union = append(union, float64(it))
	}
	for _, it := range sb {
		union = append(union, float64(it))
	}
	sort.Float64s(union)
	// The merged summary stays ε-approximate over the union stream.
	n := len(union)
	slack := a.Epsilon()*float64(n) + 2
	for q := 0.0; q <= 1.0; q += 0.1 {
		got, err := a.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		lo := sort.SearchFloat64s(union, got)
		hi := sort.Search(n, func(i int) bool { return union[i] > got })
		target := q * float64(n)
		if float64(hi) < target-slack || float64(lo) > target+slack {
			t.Errorf("merged q=%.1f: rank [%d,%d], want within ±%.0f of %.0f", q, lo, hi, slack, target)
		}
	}
}

func TestGKMergeIncompatible(t *testing.T) {
	a, b := New(0.01), New(0.02)
	b.Insert(1)
	if err := a.Merge(b); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("epsilon mismatch: got %v, want ErrIncompatible", err)
	}
	if err := a.Merge(fakeSummary{}); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("foreign type: got %v, want ErrIncompatible", err)
	}
}

type fakeSummary struct{}

func (fakeSummary) Update(core.Item, int64)      {}
func (fakeSummary) Estimate(core.Item) int64     { return 0 }
func (fakeSummary) Query(int64) []core.ItemCount { return nil }
func (fakeSummary) N() int64                     { return 0 }
func (fakeSummary) Bytes() int                   { return 0 }
func (fakeSummary) Name() string                 { return "fake" }

func TestGKMergeIntoEmpty(t *testing.T) {
	a, b := New(0.01), New(0.01)
	core.UpdateAll(b, zipfStream(17, 5000, 256))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	ae, _ := a.MarshalBinary()
	be, _ := b.MarshalBinary()
	if !bytes.Equal(ae, be) {
		t.Fatal("merge into empty summary should copy the operand's state")
	}
	// And the operand must stay independent.
	a.Insert(7)
	if be2, _ := b.MarshalBinary(); !bytes.Equal(be, be2) {
		t.Fatal("merge aliased the operand's tuples")
	}
}

func TestGKEncodeRoundTrip(t *testing.T) {
	g := New(0.015)
	core.UpdateAll(g, zipfStream(19, 25000, 4096))
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blob2, _ := g.MarshalBinary()
	if !bytes.Equal(blob, blob2) {
		t.Fatal("encoding is not deterministic")
	}
	dec, err := DecodeGK(blob)
	if err != nil {
		t.Fatal(err)
	}
	reblob, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, reblob) {
		t.Fatal("decode→encode is not bit-identical")
	}
}

// TestGKDecodeThenContinue pins the recovery contract: decoding a
// checkpoint and replaying the tail must land bit-identically on the
// same state as uninterrupted ingest — which requires sinceCompress to
// ride the wire format.
func TestGKDecodeThenContinue(t *testing.T) {
	items := zipfStream(23, 30000, 2048)
	ref := New(0.01)
	core.UpdateAll(ref, items)
	for _, cut := range []int{0, 1, 777, 15000, len(items) - 1} {
		head := New(0.01)
		core.UpdateAll(head, items[:cut])
		blob, err := head.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := DecodeGK(blob)
		if err != nil {
			t.Fatal(err)
		}
		core.UpdateAll(resumed, items[cut:])
		a, _ := ref.MarshalBinary()
		b, _ := resumed.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatalf("cut at %d: decode-then-replay diverged from continuous ingest", cut)
		}
	}
}

func TestGKDecodeRejectsCorruptBlobs(t *testing.T) {
	g := New(0.01)
	core.UpdateAll(g, zipfStream(29, 1000, 64))
	blob, _ := g.MarshalBinary()
	cases := map[string][]byte{
		"short":           blob[:3],
		"bad magic":       append([]byte("XX01"), blob[4:]...),
		"truncated head":  blob[:20],
		"truncated body":  blob[:len(blob)-5],
		"trailing":        append(append([]byte{}, blob...), 0),
		"bad epsilon":     corruptFloat(blob, 4, math.NaN()),
		"epsilon too big": corruptFloat(blob, 4, 2),
		// Query's scan over runs of equal values never advances past NaN.
		"NaN value": corruptFloat(blob, 36, math.NaN()),
	}
	for name, b := range cases {
		if _, err := DecodeGK(b); err == nil {
			t.Errorf("%s: decode accepted a corrupt blob", name)
		}
	}
}

// corruptFloat returns a copy of blob with the float64 at off set to v:
// offset 4 is epsilon, 36 the first tuple's value.
func corruptFloat(blob []byte, off int, v float64) []byte {
	c := append([]byte{}, blob...)
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		c[off+i] = byte(bits >> (8 * i))
	}
	return c
}

func TestGKRangeEstimate(t *testing.T) {
	g := New(0.01)
	items := zipfStream(31, 40000, 1024)
	exact := map[uint64]int64{}
	for _, it := range items {
		exact[uint64(it)]++
	}
	core.UpdateAll(g, items)
	slack := int64(2*g.Epsilon()*float64(g.N())) + 2
	for _, r := range [][2]uint64{{0, 0}, {0, 10}, {5, 100}, {0, 1023}, {500, 2000}} {
		var want int64
		for v := r[0]; v <= r[1] && v < 1024; v++ {
			want += exact[v]
		}
		got, err := g.RangeEstimate(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if diff := got - want; diff > slack || diff < -slack {
			t.Errorf("RangeEstimate(%d, %d) = %d, exact %d, beyond ±%d", r[0], r[1], got, want, slack)
		}
	}
	if _, err := g.RangeEstimate(10, 5); err == nil {
		t.Fatal("inverted range must error")
	}
}

func TestGKQuantileQuery(t *testing.T) {
	g := New(0.01)
	if _, err := g.QuantileQuery(0.5); err == nil {
		t.Fatal("empty summary must error")
	}
	items := zipfStream(37, 40000, 1024)
	var sorted []uint64
	for _, it := range items {
		sorted = append(sorted, uint64(it))
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	core.UpdateAll(g, items)
	slack := g.Epsilon()*float64(len(items)) + 2
	for q := 0.0; q <= 1.0; q += 0.25 {
		got, err := g.QuantileQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		lo := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= got })
		hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] > got })
		target := q * float64(len(sorted))
		if float64(hi) < target-slack || float64(lo) > target+slack {
			t.Errorf("q=%.2f: value %d has rank [%d,%d], want within ±%.0f of %.0f", q, got, lo, hi, slack, target)
		}
	}
}
