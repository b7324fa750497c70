package counters

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"streamfreq/internal/core"
	"streamfreq/internal/exact"
	"streamfreq/internal/prng"
	"streamfreq/internal/zipf"
)

// TestCounterStoreChurn validates every store-backed summary's store
// after every update of a stream with constant replacement churn, so
// each index compaction is checked right after it runs: one live slot
// per counter, no slot left for an item the store no longer tracks.
func TestCounterStoreChurn(t *testing.T) {
	const k = 16
	ssh := NewSpaceSavingHeap(k)
	f := NewFrequent(k)
	fss := NewFilteredSpaceSaving(k, 0, 3)
	tr := NewTracked(exact.New(), k)
	// Buckets of 8 and 32 arrivals: a prune pops the root every 8 or 32
	// updates, and the stores grow from empty to 10 and 38 slots.
	lc := NewLossyCounting(1.0/8, VariantLC)
	lcd := NewLossyCounting(1.0/32, VariantLCD)
	cases := []struct {
		s  core.Summary
		st *ssStorage
	}{{ssh, &ssh.st}, {f, &f.st}, {fss, &fss.st}, {tr, &tr.st}, {lc, &lc.st}, {lcd, &lcd.st}}
	rng := prng.New(1)
	for u := 1; u <= 20_000; u++ {
		x := core.Item(rng.Uint64() % 5000)
		for _, c := range cases {
			c.s.Update(x, 1)
			if !c.st.validateStorage() {
				t.Fatalf("%s: store invalid after update %d", c.s.Name(), u)
			}
		}
	}
}

// FuzzCounterStore drives the store's operations from the input bytes
// against a map reference. The store has a budget of k counters and
// starts anywhere from empty to k slots, as a decoded one does; a push
// into a full store grows it first, to the next of ssStartCap,
// 2·ssStartCap, ... (at most the budget) while it is below the budget,
// and past it by an eighth as Lossy Counting's does. After every operation the store must
// be structurally valid, track exactly the reference's items at their
// counts, and hold the reference minimum at the root.
func FuzzCounterStore(f *testing.F) {
	rng := prng.New(7)
	for range 4 {
		seed := make([]byte, 600)
		for i := range seed {
			seed[i] = byte(rng.Uint64())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0]%64)
		st := newSSStorage(int(data[0]/4) % (k + 1))
		ref := map[core.Item]int64{}
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			x, v := core.Item(ops[1]%64), int64(int8(ops[2]))
			id := st.lookup(x)
			switch ops[0] % 8 {
			case 0, 1:
				if id < 0 {
					switch room := cap(st.nodes); {
					case len(st.nodes) < room:
					case room < k:
						want := ssStartCap
						for want <= room {
							want *= 2
						}
						if st.room(k); cap(st.nodes) != min(want, k) {
							t.Fatalf("full store of %d slots grew to %d under budget %d, want %d", room, cap(st.nodes), k, min(want, k))
						}
					default:
						st.grow(room + room/8 + 1)
					}
					st.push(x, v, 0)
					ref[x] = v
				}
			case 2:
				if len(st.nodes) > 0 {
					id = int32(int(ops[1]) % len(st.nodes))
					st.add(id, v)
					ref[st.nodes[id].item] += v
				}
			case 3:
				if id < 0 && len(st.nodes) > 0 {
					delete(ref, st.nodes[st.heap[0]].item)
					st.replaceMin(x, v, 0)
					ref[x] = v
				}
			case 4:
				if len(st.nodes) > 0 {
					delete(ref, st.nodes[st.heap[0]].item)
					st.popMin()
				}
			case 5:
				if _, ok := ref[x]; ok != (id >= 0) {
					t.Fatalf("lookup(%d) = %d, reference tracked = %v", x, id, ok)
				}
			case 6:
				st = st.clone()
			case 7:
				// Rare, so the store fills between resets.
				if ops[2]%32 == 0 {
					st.reset()
					clear(ref)
				}
			}
			if !st.validateStorage() {
				t.Fatalf("store invalid after op %d", ops[0]%8)
			}
			if len(st.nodes) != len(ref) {
				t.Fatalf("store tracks %d items, reference %d", len(st.nodes), len(ref))
			}
			if len(ref) == 0 {
				continue
			}
			lo := int64(math.MaxInt64)
			for x, c := range ref {
				id := st.lookup(x)
				if id < 0 || st.count(id) != c {
					t.Fatalf("item %d: store id %d, want count %d", x, id, c)
				}
				lo = min(lo, c)
			}
			if st.hcnt[0] != lo {
				t.Fatalf("root holds %d, reference minimum %d", st.hcnt[0], lo)
			}
		}
	})
}

// FuzzStreamSummary drives SSL from the input bytes — unit and weighted
// updates, a second summary's updates merged in, Clone, and a
// MarshalBinary → decode round trip, whose compact store later updates
// grow — against an exact count of the items fed. After every op the
// Stream-Summary must validate, its store must hold at most its budget
// and at most twice its entries (or ssStartCap), a full one must report
// the Bytes() of a store built at its budget, and Space-Saving's bounds
// must hold for every item fed: GuaranteedCount ≤ true ≤ Estimate, with
// the counts summing to N until the first merge.
func FuzzStreamSummary(f *testing.F) {
	rng := prng.New(11)
	for range 4 {
		seed := make([]byte, 400)
		for i := range seed {
			seed[i] = byte(rng.Uint64())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0]%40)
		s, o := NewSpaceSavingList(k), NewSpaceSavingList(k)
		truth, other := map[core.Item]int64{}, map[core.Item]int64{}
		merged := false
		for ops := data[1:]; len(ops) >= 2; ops = ops[2:] {
			x := core.Item(ops[1] % 48)
			switch ops[0] % 8 {
			case 0, 1, 2:
				s.Update(x, 1)
				truth[x]++
			case 3:
				c := 1 + int64(ops[0]/8)
				s.Update(x, c)
				truth[x] += c
			case 4:
				o.Update(x, 1)
				other[x]++
			case 5:
				if err := s.Merge(o); err != nil {
					t.Fatal(err)
				}
				for y, c := range other {
					truth[y] += c
				}
				o, other, merged = NewSpaceSavingList(k), map[core.Item]int64{}, true
			case 6:
				c := s.Clone()
				a, _ := s.MarshalBinary()
				if b, _ := c.MarshalBinary(); !bytes.Equal(a, b) {
					t.Fatal("a clone encodes unlike its source")
				}
				s = c
			case 7:
				blob, _ := s.MarshalBinary()
				d, err := DecodeSpaceSavingList(blob)
				if err != nil {
					t.Fatalf("decoding its own encoding: %v", err)
				}
				if again, _ := d.MarshalBinary(); !bytes.Equal(again, blob) {
					t.Fatal("decode → encode is not byte-identical")
				}
				s = d
			}
			if !s.validate() {
				t.Fatalf("Stream-Summary invalid after op %d", ops[0]%8)
			}
			if c := cap(s.t.nodes); c > k || c > max(2*len(s.t.nodes), ssStartCap) {
				t.Fatalf("store of %d slots holds %d entries under budget %d", c, len(s.t.nodes), k)
			}
			if full := newSpaceSavingList(k, k); len(s.t.nodes) == k && s.Bytes() != full.Bytes() {
				t.Fatalf("full summary reports %d bytes, a store built at its budget %d", s.Bytes(), full.Bytes())
			}
			var sum int64
			for id := range s.t.nodes {
				sum += s.count(int32(id))
			}
			if !merged && sum != s.N() {
				t.Fatalf("counts sum to %d, N = %d", sum, s.N())
			}
			for y, c := range truth {
				if lo, hi := s.GuaranteedCount(y), s.Estimate(y); lo > c || c > hi {
					t.Fatalf("item %d: true count %d outside [%d, %d]", y, c, lo, hi)
				}
			}
		}
	})
}

// TestGrowthIsInvisible: a Space-Saving store that starts with no slots,
// grows to ssStartCap at its first item and doubles answers and encodes
// exactly as one built at its budget k. At every step up to k the two
// blobs are byte-identical, encode→decode→encode is byte-identical, and
// Min, Query, Estimate and GuaranteedCount agree; the summary decoded
// at each step, fed the rest of the stream, doubles from its blob's
// size and ends equal to the summary built at k as well.
func TestGrowthIsInvisible(t *testing.T) {
	const k = 1001
	g, err := zipf.NewGenerator(1<<16, 1.0, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	items := g.Stream(20_000)
	type summary interface {
		ssSummary
		MarshalBinary() ([]byte, error)
	}
	for _, tc := range []struct {
		name         string
		grown, built summary
		slots        func(summary) int
		decode       func([]byte) (summary, error)
	}{
		{
			name:  "SSH",
			grown: NewSpaceSavingHeap(k), built: &SpaceSavingHeap{k: k, st: newSSStorage(k)},
			slots:  func(s summary) int { return cap(s.(*SpaceSavingHeap).st.nodes) },
			decode: func(b []byte) (summary, error) { return DecodeSpaceSavingHeap(b) },
		},
		{
			name:  "SSL",
			grown: NewSpaceSavingList(k), built: newSpaceSavingList(k, k),
			slots:  func(s summary) int { return cap(s.(*SpaceSavingList).t.nodes) },
			decode: func(b []byte) (summary, error) { return DecodeSpaceSavingList(b) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			same := func(when string, got summary) {
				t.Helper()
				a, _ := got.MarshalBinary()
				b, _ := tc.built.MarshalBinary()
				if !bytes.Equal(a, b) {
					t.Fatalf("%s: blob differs from the summary built at k", when)
				}
				if got.Min() != tc.built.Min() || !slices.Equal(got.Query(1), tc.built.Query(1)) {
					t.Fatalf("%s: Min or Query differs from the summary built at k", when)
				}
				for _, x := range items[:4096] {
					if got.Estimate(x) != tc.built.Estimate(x) || got.GuaranteedCount(x) != tc.built.GuaranteedCount(x) {
						t.Fatalf("%s: item %d answers differ from the summary built at k", when, x)
					}
				}
			}
			var steps []int
			var decoded []summary
			for i, x := range items {
				before := tc.slots(tc.grown)
				tc.grown.Update(x, 1)
				tc.built.Update(x, 1)
				for _, d := range decoded {
					d.Update(x, 1)
				}
				if tc.slots(tc.grown) == before {
					continue
				}
				steps = append(steps, tc.slots(tc.grown))
				when := fmt.Sprintf("after item %d, grown to %d slots", i, tc.slots(tc.grown))
				same(when, tc.grown)
				blob, _ := tc.grown.MarshalBinary()
				d, err := tc.decode(blob)
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if again, _ := d.MarshalBinary(); !bytes.Equal(again, blob) {
					t.Fatalf("%s: encode → decode → encode is not byte-identical", when)
				}
				decoded = append(decoded, d)
			}
			if want := []int{ssStartCap, 64, 128, 256, 512, k}; !slices.Equal(steps, want) {
				t.Fatalf("doubling steps %v, want %v", steps, want)
			}
			same("at the end", tc.grown)
			for i, d := range decoded {
				if tc.slots(d) != k {
					t.Fatalf("summary decoded at step %d ends at %d slots, want %d", i, tc.slots(d), k)
				}
				same(fmt.Sprintf("summary decoded at step %d, at the end", i), d)
			}
		})
	}
}

// TestStoreLayout pins the counter store's layout: a 16 B node and a
// 32 B heap-store slot, so SSH at φ = 0.001 (k = 1001) reports
// 40,224 B; and heap and pos in one allocation, so building, cloning or
// growing a store allocates four slices (nodes, index, heap with pos,
// counts).
func TestStoreLayout(t *testing.T) {
	if got := unsafe.Sizeof(ssNode{}); got != 16 {
		t.Fatalf("ssNode is %d B, want 16", got)
	}
	if got := ssBlockBytes(1001); got != 40_224 {
		t.Fatalf("a store of 1001 counters is %d B, want 40,224", got)
	}
	oneAllocation := func(st *ssStorage) bool {
		end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(st.heap)), 4*cap(st.heap))
		return end == unsafe.Pointer(unsafe.SliceData(st.pos))
	}
	st := newSSStorage(100)
	for i := range 100 {
		st.push(core.Item(i), int64(i%7), 0)
	}
	var sink ssStorage
	for _, tc := range []struct {
		name   string
		allocs float64
		f      func()
	}{
		{"build", 4, func() { sink = newSSStorage(100) }},
		{"clone", 4, func() { sink = st.clone() }},
		{"clone, then grow", 8, func() { sink = st.clone(); sink.grow(200) }},
	} {
		if got := testing.AllocsPerRun(10, tc.f); got != tc.allocs {
			t.Errorf("%s: %v allocations, want %v", tc.name, got, tc.allocs)
		}
		if !oneAllocation(&sink) || !sink.validateStorage() {
			t.Errorf("%s: heap and pos are not one allocation, or the store is invalid", tc.name)
		}
	}
}

// raceEnabled is set under the race detector (race_test.go), where
// allocation counts through a sync.Pool are not the program's.
var raceEnabled bool

// TestFirstBatchGrowsOnce: a batch into an empty Space-Saving store
// grows it once, to the step that holds the batch's distinct items,
// where the same updates one at a time leave it, so Bytes and the blob
// equal theirs. A new summary and its first 512-item batch allocate six
// times: the summary, its first index, and the four slices of the
// grown store.
func TestFirstBatchGrowsOnce(t *testing.T) {
	const k = 1001
	g, err := zipf.NewGenerator(1<<20, 1.1, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	type summary interface {
		ssSummary
		core.BatchUpdater
		MarshalBinary() ([]byte, error)
	}
	for _, tc := range []struct {
		name  string
		new   func() summary
		slots func(summary) int
	}{
		{"SSH", func() summary { return NewSpaceSavingHeap(k) }, func(s summary) int { return cap(s.(*SpaceSavingHeap).st.nodes) }},
		{"SSL", func() summary { return NewSpaceSavingList(k) }, func(s summary) int { return cap(s.(*SpaceSavingList).t.nodes) }},
	} {
		for _, size := range []int{1, 32, 33, 512, 4096} {
			batch := g.Stream(size)
			once, stepped := tc.new(), tc.new()
			once.UpdateBatch(batch)
			distinct := 0
			core.Collapse(batch, func(items []core.Item, counts []int64) {
				distinct = len(items)
				for i, x := range items {
					stepped.Update(x, counts[i])
				}
			})
			a, _ := once.MarshalBinary()
			b, _ := stepped.MarshalBinary()
			if tc.slots(once) != tc.slots(stepped) || once.Bytes() != stepped.Bytes() || !bytes.Equal(a, b) {
				t.Fatalf("%s, %d distinct items: a batch leaves %d slots (%d B), one at a time %d (%d B), or the blobs differ",
					tc.name, distinct, tc.slots(once), once.Bytes(), tc.slots(stepped), stepped.Bytes())
			}
			if want := nextCap(distinct-1, k); tc.slots(once) != want {
				t.Fatalf("%s: %d distinct items grew the store to %d slots, want %d", tc.name, distinct, tc.slots(once), want)
			}
		}
		if raceEnabled {
			continue
		}
		batch := g.Stream(512)
		if got := testing.AllocsPerRun(20, func() { tc.new().UpdateBatch(batch) }); got > 6 {
			t.Errorf("%s: a new summary and its first batch allocate %v times, want at most 6", tc.name, got)
		}
	}
}
