package tenant_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/persist"
	"streamfreq/internal/tenant"
	"streamfreq/internal/wire"
	"streamfreq/internal/zipf"
)

func testStream(t testing.TB, n int, seed uint64) []core.Item {
	t.Helper()
	g, err := zipf.NewGenerator(1<<12, 1.1, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	return g.Stream(n)
}

func newTable(t testing.TB, opts tenant.Options) *tenant.Table {
	t.Helper()
	tb, err := tenant.NewTable(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// encodeNS pulls one namespace's canonical wire bytes out of a bundle.
func encodeNS(t testing.TB, tb *tenant.Table, ns string) []byte {
	t.Helper()
	bundle, err := tb.EncodeBundle()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := tenant.DecodeBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.NS == ns {
			return e.Blob
		}
	}
	t.Fatalf("namespace %q missing from bundle", ns)
	return nil
}

// TestTenantIsolation is the isolation wall: interleaving ingest across
// K namespaces — under an eviction cap small enough that tenants cycle
// through evict/reload constantly — must leave every namespace
// bit-identical to an independent Space-Saving summary fed only its own
// stream.
func TestTenantIsolation(t *testing.T) {
	const tenants = 8
	phi := map[string]float64{"t0": 0.5, "t3": 0.02} // mixed budgets
	tb := newTable(t, tenant.Options{DefaultPhi: 0.01, MaxResident: 2, Phi: phi})

	streams := make([][]core.Item, tenants)
	indep := make([]*counters.SpaceSavingHeap, tenants)
	for i := range streams {
		streams[i] = testStream(t, 6_000, uint64(0xD15C+i))
		p := 0.01
		if v, ok := phi[fmt.Sprintf("t%d", i)]; ok {
			p = v
		}
		indep[i] = counters.NewSpaceSavingHeap(int(1/p) + 1)
	}

	// Interleave in uneven slices so tenants constantly displace each
	// other from the 2-slot residency.
	sizes := []int{512, 3, 1024, 97, 301}
	offs := make([]int, tenants)
	for done := false; !done; {
		done = true
		for i := range streams {
			if offs[i] >= len(streams[i]) {
				continue
			}
			done = false
			n := sizes[(i+offs[i])%len(sizes)]
			if offs[i]+n > len(streams[i]) {
				n = len(streams[i]) - offs[i]
			}
			batch := streams[i][offs[i] : offs[i]+n]
			if _, _, err := tb.IngestBatch(fmt.Sprintf("t%d", i), batch); err != nil {
				t.Fatal(err)
			}
			indep[i].UpdateBatch(batch)
			offs[i] += n
		}
	}

	st := tb.TableStats()
	if st.Resident > 2 {
		t.Fatalf("residency cap violated: %d resident", st.Resident)
	}
	if st.Evictions == 0 || st.Reloads == 0 {
		t.Fatalf("wall needs evict/reload churn to mean anything: %+v", st)
	}
	for i := range streams {
		ns := fmt.Sprintf("t%d", i)
		want, err := indep[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeNS(t, tb, ns); !bytes.Equal(got, want) {
			t.Fatalf("namespace %q is not bit-identical to its independent summary", ns)
		}
		// Reads must agree too (and must not disturb correctness when
		// they trigger a reload).
		sum, _, err := tb.TenantSnapshot(ns)
		if err != nil {
			t.Fatalf("namespace %q: %v", ns, err)
		}
		top, wantTop := sum.Query(1), indep[i].Query(1)
		if len(top) != len(wantTop) {
			t.Fatalf("namespace %q query returned %d items, want %d", ns, len(top), len(wantTop))
		}
	}
}

// op is one logged ingest step, replayable against a shadow table.
type op struct {
	ns       string
	items    []core.Item
	weighted bool
	x        core.Item
	count    int64
}

func applyOp(t testing.TB, tb *tenant.Table, o op) int64 {
	t.Helper()
	if o.weighted {
		tb.Update(o.x, o.count)
		return o.count
	}
	if _, _, err := tb.IngestBatch(o.ns, o.items); err != nil {
		t.Fatal(err)
	}
	return int64(len(o.items))
}

// TestTenantRecoveryKillAtArbitraryOffset is the durability wall: a
// multi-tenant table logged through tenant-tagged WAL records, with a
// mid-stream SFCKPT02 checkpoint, killed by truncating the live
// segment at an arbitrary byte offset, must recover to a state
// bit-identical (per namespace, via the canonical encoding) to
// replaying exactly the surviving record prefix into a fresh table.
// The recovering table is built WITHOUT the original φ overrides to
// prove counter budgets ride in the log, not in config.
func TestTenantRecoveryKillAtArbitraryOffset(t *testing.T) {
	for _, cutBack := range []int64{0, 1, 7, 64, 1000} {
		t.Run(fmt.Sprintf("cut-%d", cutBack), func(t *testing.T) {
			dir := t.TempDir()
			popts := persist.Options{
				Dir:    dir,
				Algo:   "SSH",
				Fsync:  persist.FsyncAlways,
				Decode: func(b []byte) (core.Summary, error) { return counters.DecodeSpaceSavingHeap(b) },
			}
			tb := newTable(t, tenant.Options{
				DefaultPhi:  0.01,
				MaxResident: 2, // checkpoint and replay over mostly-evicted tenants
				Phi:         map[string]float64{"eu": 0.1},
			})
			st, err := persist.Open(popts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Recover(tb); err != nil {
				t.Fatal(err)
			}
			tb.PersistTo(st)

			// Mixed traffic: three explicit namespaces, the default
			// namespace through the legacy batch path, and a weighted
			// scalar update.
			var ops []op
			nss := []string{"eu", "us", "ap", ""}
			streams := make(map[string][]core.Item)
			for i, ns := range nss {
				streams[ns] = testStream(t, 4_000, uint64(0xBEEF+i))
			}
			sizes := []int{512, 3, 1024, 97}
			offs := map[string]int{}
			for round := 0; ; round++ {
				progressed := false
				for i, ns := range nss {
					s := streams[ns]
					if offs[ns] >= len(s) {
						continue
					}
					progressed = true
					n := sizes[(i+round)%len(sizes)]
					if offs[ns]+n > len(s) {
						n = len(s) - offs[ns]
					}
					ops = append(ops, op{ns: ns, items: s[offs[ns] : offs[ns]+n]})
					offs[ns] += n
				}
				if !progressed {
					break
				}
				if round == 2 {
					ops = append(ops, op{weighted: true, x: 42, count: 7})
				}
			}
			for i, o := range ops {
				applyOp(t, tb, o)
				if i == len(ops)/2 {
					if _, err := st.Checkpoint(tb); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
				}
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			// Kill: no Close. Tear the live segment.
			segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no segments (%v)", err)
			}
			sort.Strings(segs)
			last := segs[len(segs)-1]
			if cutBack > 0 {
				fi, err := os.Stat(last)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(last, fi.Size()-cutBack); err != nil {
					t.Fatal(err)
				}
			}

			rec := newTable(t, tenant.Options{DefaultPhi: 0.01, MaxResident: 2}) // no overrides
			st2, err := persist.Open(popts)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := st2.Recover(rec)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer st2.Close()

			// Rebuild the surviving prefix in a fresh, never-persisted
			// table. Tears land on record boundaries, so RecoveredN must
			// align with an op boundary.
			shadow := newTable(t, tenant.Options{DefaultPhi: 0.01, MaxResident: 2, Phi: map[string]float64{"eu": 0.1}})
			var n int64
			for _, o := range ops {
				if n == stats.RecoveredN {
					break
				}
				n += applyOp(t, shadow, o)
			}
			if n != stats.RecoveredN {
				t.Fatalf("recovered n=%d does not align with any op boundary (reached %d)", stats.RecoveredN, n)
			}
			if cutBack > 0 && stats.RecoveredN >= tb.N() && cutBack < 1000 {
				// Small tears must cost at least the final record (the
				// 1000-byte cut can land inside the checkpointed region
				// only if the tail was short; RecoveredN still rules).
				t.Fatalf("tear lost nothing: recovered %d of %d", stats.RecoveredN, tb.N())
			}

			wantBundle, err := shadow.EncodeBundle()
			if err != nil {
				t.Fatal(err)
			}
			gotBundle, err := rec.EncodeBundle()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBundle, wantBundle) {
				t.Fatal("recovered tenants are not bit-identical to the surviving prefix")
			}
			if rec.N() != shadow.N() {
				t.Fatalf("recovered table n=%d, shadow %d", rec.N(), shadow.N())
			}
			// Budgets rode the log: "eu" must have k=11 even though the
			// recovering table had no φ override for it.
			if info, ok := rec.TenantInfo("eu"); !ok || info.K != 11 {
				t.Fatalf("namespace eu recovered with k=%d (info=%+v), want 11 from the log", info.K, info)
			}
		})
	}
}

// TestEmptyTableCheckpointRecovers: a checkpoint of a table with no
// namespaces (SFCKPT02 with zero shards and zero tenants) is a valid
// file, and a restart on its directory recovers the empty table.
func TestEmptyTableCheckpointRecovers(t *testing.T) {
	popts := persist.Options{
		Dir:    t.TempDir(),
		Algo:   "SSH",
		Fsync:  persist.FsyncAlways,
		Decode: func(b []byte) (core.Summary, error) { return counters.DecodeSpaceSavingHeap(b) },
	}
	for round := 0; round < 2; round++ {
		st, err := persist.Open(popts)
		if err != nil {
			t.Fatal(err)
		}
		tb := newTable(t, tenant.Options{DefaultPhi: 0.01})
		stats, err := st.Recover(tb)
		if err != nil {
			t.Fatalf("round %d: recovering an empty table's checkpoint: %v", round, err)
		}
		if stats.RecoveredN != 0 || tb.N() != 0 {
			t.Fatalf("round %d: recovered n=%d (table %d), want 0", round, stats.RecoveredN, tb.N())
		}
		tb.PersistTo(st)
		if _, err := st.Checkpoint(tb); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLegacyDirectoryAdoption: a data directory written by the
// single-tenant stack (SFCKPT01 checkpoint + untagged WAL records)
// must recover into a multi-tenant table as its default namespace,
// bit-identically.
func TestLegacyDirectoryAdoption(t *testing.T) {
	dir := t.TempDir()
	popts := persist.Options{
		Dir:    dir,
		Algo:   "SSH",
		Fsync:  persist.FsyncAlways,
		Decode: func(b []byte) (core.Summary, error) { return counters.DecodeSpaceSavingHeap(b) },
	}
	orig := core.NewConcurrent(counters.NewSpaceSavingHeap(101))
	st, err := persist.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(orig); err != nil {
		t.Fatal(err)
	}
	orig.PersistTo(st)
	stream := testStream(t, 10_000, 0xFEED)
	half := len(stream) / 2
	orig.UpdateBatch(stream[:half])
	if _, err := st.Checkpoint(orig); err != nil {
		t.Fatal(err)
	}
	orig.UpdateBatch(stream[half:]) // tail replays through recUnit records
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	// Kill without Close; adopt into a tenant table.
	tb := newTable(t, tenant.Options{DefaultPhi: 0.01})
	st2, err := persist.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Recover(tb); err != nil {
		t.Fatalf("adopting legacy directory: %v", err)
	}
	defer st2.Close()

	wantSnap := orig.SnapshotBarrier(nil)[0]
	want, err := core.EncodeSummary(wantSnap)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeNS(t, tb, ""); !bytes.Equal(got, want) {
		t.Fatal("adopted default namespace differs from the single-tenant original")
	}
	if tb.N() != orig.LiveN() {
		t.Fatalf("adopted n=%d, original %d", tb.N(), orig.LiveN())
	}
}

// TestManyTenantsBounded is the scale wall: a million lazily-created
// 64-counter tenants (100k under -short) must fit in bounded memory —
// residency capped by CLOCK eviction, evicted tenants costing only
// their compact blobs. The documented bound: ≤ 48 bytes/tenant of
// Bytes() (resident stores + evicted blobs) at 2 items/tenant. An
// evicted tenant's SS02 blob is 17 bytes; the 1,024 resident stores
// add ~1.7 KB each, spread over the tenants.
func TestManyTenantsBounded(t *testing.T) {
	total := 1_000_000
	if testing.Short() {
		total = 100_000
	}
	const maxResident = 1024
	// φ = 1/63 → k = 64.
	tb := newTable(t, tenant.Options{DefaultPhi: 1.0 / 63, MaxResident: maxResident})
	items := []core.Item{7, 7}
	var ns [24]byte
	for i := 0; i < total; i++ {
		n := copy(ns[:], "t-")
		n += copy(ns[n:], fmt.Sprintf("%07d", i))
		if _, _, err := tb.IngestBatch(string(ns[:n]), items); err != nil {
			t.Fatal(err)
		}
	}
	st := tb.TableStats()
	if st.Tenants != total {
		t.Fatalf("created %d tenants, want %d", st.Tenants, total)
	}
	if info, ok := tb.TenantInfo("t-0000000"); !ok || info.K != 64 {
		t.Fatalf("tenant budget = %+v, want k=64", info)
	}
	if st.Resident > maxResident {
		t.Fatalf("%d resident tenants, cap %d", st.Resident, maxResident)
	}
	perTenant := float64(tb.Bytes()) / float64(total)
	t.Logf("%.2f bytes/tenant", perTenant)
	if perTenant > 48 {
		t.Fatalf("%.1f bytes/tenant, documented bound is 48", perTenant)
	}
	if tb.N() != int64(2*total) {
		t.Fatalf("table n=%d, want %d", tb.N(), 2*total)
	}
}

// TestPerTenantPhi: an override sets its namespace's budget and query
// threshold, and NewTable refuses one past counters.MaxBudget.
func TestPerTenantPhi(t *testing.T) {
	tb := newTable(t, tenant.Options{DefaultPhi: 0.01, Phi: map[string]float64{"coarse": 0.5}})
	for _, ns := range []string{"coarse", "fine"} {
		if _, _, err := tb.IngestBatch(ns, []core.Item{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if info, _ := tb.TenantInfo("coarse"); info.K != 3 || info.Phi != 0.5 {
		t.Fatalf("coarse = %+v, want k=3 φ=0.5", info)
	}
	if info, _ := tb.TenantInfo("fine"); info.K != 101 || info.Phi != 0.01 {
		t.Fatalf("fine = %+v, want k=101 φ=0.01", info)
	}
	// φ = 2e-7 needs 5,000,001 counters, past counters.MaxBudget: the
	// namespace would be built, then refused by its own reload.
	for _, opts := range []tenant.Options{{DefaultPhi: 2e-7}, {DefaultPhi: 0.01, Phi: map[string]float64{"x": 2e-7}}} {
		if _, err := tenant.NewTable(opts); err == nil {
			t.Fatalf("NewTable(%+v) accepted φ = 2e-7", opts)
		}
	}
}

// TestBundleRoundTrip: the cluster-pull frame decodes back to exactly
// the table's namespaces, resident or not.
func TestBundleRoundTrip(t *testing.T) {
	tb := newTable(t, tenant.Options{DefaultPhi: 0.1, MaxResident: 1})
	want := map[string][]core.Item{
		"a": {1, 1, 2},
		"b": {3},
		"c": {4, 4, 4, 4},
	}
	for ns, items := range want {
		if _, _, err := tb.IngestBatch(ns, items); err != nil {
			t.Fatal(err)
		}
	}
	bundle, err := tb.EncodeBundle()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := tenant.DecodeBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("bundle holds %d namespaces, want %d", len(entries), len(want))
	}
	for _, e := range entries {
		sum, err := counters.DecodeSpaceSavingHeap(e.Blob)
		if err != nil {
			t.Fatalf("namespace %q: %v", e.NS, err)
		}
		if sum.N() != int64(len(want[e.NS])) {
			t.Fatalf("namespace %q decoded n=%d, want %d", e.NS, sum.N(), len(want[e.NS]))
		}
	}
	if _, err := tenant.DecodeBundle(bundle[:len(bundle)-1]); err == nil {
		t.Fatal("truncated bundle must not decode")
	}
}

// TestPoisonedTenantLeaksNoBlock: a tenant restored from a checkpoint
// whose blob repeats an item is refused on every touch, writes and
// reads alike, with the reload's error naming it — never answered as
// if it were empty.
func TestPoisonedTenantLeaksNoBlock(t *testing.T) {
	s := counters.NewSpaceSavingHeap(4)
	s.Update(1, 1)
	s.Update(2, 1)
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// SS02: the magic, then k, n and the entry count, one varint byte
	// each here; then per entry an 8-byte item and one-byte count and
	// error. Entry 1 takes entry 0's item.
	const first, entry = 4 + 3, 8 + 2
	if len(blob) != first+2*entry {
		t.Fatalf("blob is %d bytes, want %d", len(blob), first+2*entry)
	}
	copy(blob[first+entry:first+entry+8], blob[first:first+8])
	tb := newTable(t, tenant.Options{DefaultPhi: 0.25})
	if err := tb.RestoreTenants([]persist.TenantState{{NS: "p", K: 4, N: 2, Blob: blob}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := tb.IngestBatch("p", []core.Item{7}); err == nil {
			t.Fatal("a poisoned tenant reloaded")
		}
	}
	_, _, err = tb.TenantSnapshot("p")
	if err == nil || errors.Is(err, tenant.ErrNoNamespace) || !strings.Contains(err.Error(), `"p"`) {
		t.Fatalf("read of a poisoned tenant: %v, want its reload error naming it", err)
	}
	if st := tb.TableStats(); st.Resident != 0 || st.Reloads != 0 || st.N != 2 {
		t.Fatalf("after refused touches: %+v, want the tenant evicted at n=2", st)
	}
}

// TestVolumeCheckpointReadsTableBytes: the checkpoint loop's volume
// trigger is max(4 MiB, 8 × Bytes()), and a table's Bytes() is its
// tenants' state. A table whose 8 × Bytes() exceeds its log tail takes
// no volume checkpoint, even with the tail past the 4 MiB floor; once
// the tail reaches 8 × Bytes() it takes one.
func TestVolumeCheckpointReadsTableBytes(t *testing.T) {
	const floor = 4 << 20
	st, err := persist.Open(persist.Options{
		Dir:    t.TempDir(),
		Algo:   "SSH",
		Fsync:  persist.FsyncInterval,
		Decode: func(b []byte) (core.Summary, error) { return counters.DecodeSpaceSavingHeap(b) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// 16 namespaces of k = 1001 counters hold 835,776 B, so 8 × Bytes()
	// clears the floor by more than 2 MiB.
	const namespaces = 16
	tb := newTable(t, tenant.Options{DefaultPhi: 0.001})
	if _, err := st.Recover(tb); err != nil {
		t.Fatal(err)
	}
	tb.PersistTo(st)
	defer st.Close()
	if err := st.AutoCheckpoint(tb, time.Hour, slog.New(slog.DiscardHandler)); err != nil {
		t.Fatal(err)
	}

	items := testStream(t, 1<<16, 0x7A11)
	ingestTo := func(tail int64) {
		t.Helper()
		for i := 0; st.Stats().TailBytes < tail; i++ {
			off := (i * 4096) % len(items)
			if _, _, err := tb.IngestBatch(fmt.Sprintf("t%d", i%namespaces), items[off:off+4096]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingestTo(namespaces * 4096 * 8)
	if n := tb.TableStats().Tenants; n != namespaces {
		t.Fatalf("%d namespaces filled, want %d", n, namespaces)
	}
	threshold := 8 * int64(tb.Bytes())
	if threshold < floor+(1<<20) {
		t.Fatalf("8 × Bytes() = %d B, not far enough past the %d B floor for this test", threshold, floor)
	}
	ingestTo(floor + (threshold-floor)/2)
	time.Sleep(500 * time.Millisecond) // five of the loop's polls
	if s := st.Stats(); s.Checkpoints != 0 {
		t.Fatalf("%d checkpoints with a tail of %d B under 8 × Bytes() = %d B", s.Checkpoints, s.TailBytes, threshold)
	}

	ingestTo(8 * int64(tb.Bytes()))
	for deadline := time.Now().Add(5 * time.Second); st.Stats().Checkpoints == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint with a tail of %d B past 8 × Bytes() = %d B", st.Stats().TailBytes, 8*tb.Bytes())
		}
	}
}

// TestSS01CheckpointRecovers: a data directory an earlier build
// checkpointed holds SS01 blobs, which this build restores still
// encoded, so a namespace nothing touches keeps its SS01 blob through
// the next checkpoint and restart, beside the SS02 blobs of the
// namespaces that were touched. A checkpoint mixing the two, plus a WAL
// tail, must recover bit-identically to a table that ingested the whole
// stream, and the untouched namespaces must still hold the SS01 bytes.
func TestSS01CheckpointRecovers(t *testing.T) {
	dir := t.TempDir()
	popts := persist.Options{
		Dir:    dir,
		Algo:   "SSH",
		Fsync:  persist.FsyncAlways,
		Decode: func(b []byte) (core.Summary, error) { return counters.DecodeSpaceSavingHeap(b) },
	}
	opts := tenant.Options{DefaultPhi: 0.01, MaxResident: 2}
	items := testStream(t, 6_000, 0x5501)
	type phase []struct {
		ns    string
		items []core.Item
	}
	// Phase 0 is what the earlier build logged and checkpointed; phase 1
	// reaches a and b before this build's checkpoint, phase 2 reaches c
	// and a in the log tail. "", d and e are touched by phase 0 only.
	phases := []phase{
		{{"", items[:300]}, {"a", items[300:700]}, {"b", items[700:750]}, {"c", items[750:1500]},
			{"d", items[1500:1503]}, {"e", items[1503:2000]}, {"a", items[2000:2100]}},
		{{"a", items[2100:2600]}, {"b", items[2600:3600]}, {"a", items[3600:3700]}},
		{{"c", items[3700:4900]}, {"a", items[4900:6000]}},
	}
	ingest := func(tb *tenant.Table, p phase) {
		for _, b := range p {
			if _, _, err := tb.IngestBatch(b.ns, b.items); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := newTable(t, opts)
	for _, p := range phases {
		ingest(want, p)
	}

	// The earlier build's directory: phase 0 logged and checkpointed,
	// then the checkpoint rewritten with every blob in SS01.
	st0, err := persist.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	old := newTable(t, opts)
	if _, err := st0.Recover(old); err != nil {
		t.Fatal(err)
	}
	old.PersistTo(st0)
	ingest(old, phases[0])
	if _, err := st0.Checkpoint(old); err != nil {
		t.Fatal(err)
	}
	if err := st0.Close(); err != nil {
		t.Fatal(err)
	}
	ss01 := map[string][]byte{}
	states := old.TenantSnapshotBarrier(nil)
	for i, ts := range states {
		blob := ts.Blob
		if ts.Summary != nil {
			if blob, err = core.EncodeSummary(ts.Summary); err != nil {
				t.Fatal(err)
			}
		}
		ss01[ts.NS] = ss01Of(t, blob)
		states[i].Blob, states[i].Summary = ss01[ts.NS], nil
	}
	rewriteTenantCheckpoint(t, filepath.Join(dir, "checkpoint.ckpt"), states)

	// This build: recover, ingest phase 1, checkpoint (a manifest mixing
	// SS01 and SS02 blobs), ingest phase 2, and die without closing.
	st1, err := persist.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTable(t, opts)
	if _, err := st1.Recover(tb); err != nil {
		t.Fatal(err)
	}
	tb.PersistTo(st1)
	ingest(tb, phases[1])
	if _, err := st1.Checkpoint(tb); err != nil {
		t.Fatal(err)
	}
	magics := map[string]string{}
	for _, ns := range []string{"", "a", "b", "c", "d", "e"} {
		magics[ns] = string(encodeNS(t, tb, ns)[:4])
	}
	if wantMagics := map[string]string{"": "SS01", "a": "SS02", "b": "SS02", "c": "SS01", "d": "SS01", "e": "SS01"}; !maps.Equal(magics, wantMagics) {
		t.Fatalf("checkpointed blobs %v, want %v", magics, wantMagics)
	}
	ckptN := tb.N()
	ingest(tb, phases[2])
	if err := st1.Err(); err != nil {
		t.Fatal(err)
	}

	rec := newTable(t, opts)
	st2, err := persist.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stats, err := st2.Recover(rec)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.CheckpointN != ckptN || stats.RecoveredN != want.N() || rec.N() != want.N() {
		t.Fatalf("recovered n=%d (table %d) from checkpoint n=%d, want %d from %d", stats.RecoveredN, rec.N(), stats.CheckpointN, want.N(), ckptN)
	}
	for ns := range magics {
		got := encodeNS(t, rec, ns)
		sum, err := counters.DecodeSpaceSavingHeap(got)
		if err != nil {
			t.Fatalf("namespace %q: %v", ns, err)
		}
		canonical, err := sum.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonical, encodeNS(t, want, ns)) {
			t.Errorf("namespace %q recovered to a state the whole stream does not reach", ns)
		}
		if untouched := ns == "" || ns == "d" || ns == "e"; untouched && !bytes.Equal(got, ss01[ns]) {
			t.Errorf("untouched namespace %q lost its SS01 blob across the restart (now %q)", ns, got[:4])
		}
	}
}

// TestUnknownBlobMagicFailsRecovery: a tenant checkpoint whose blob
// carries a magic this build does not know — another version wrote it —
// then a WAL tail into that namespace. The tail's record is whole,
// CRC-clean and acknowledged, so recovery must fail, saying another
// version wrote the blob, and leave the segment byte-identical for a
// build that can apply it, rather than trim the record as a torn tail.
func TestUnknownBlobMagicFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	popts := persist.Options{
		Dir:    dir,
		Algo:   "SSH",
		Fsync:  persist.FsyncAlways,
		Decode: func(b []byte) (core.Summary, error) { return counters.DecodeSpaceSavingHeap(b) },
	}
	opts := tenant.Options{DefaultPhi: 0.01, MaxResident: 2}
	items := testStream(t, 3_000, 0x5509)
	st, err := persist.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTable(t, opts)
	if _, err := st.Recover(tb); err != nil {
		t.Fatal(err)
	}
	tb.PersistTo(st)
	for i, ns := range []string{"eu", "us", "eu"} {
		if _, _, err := tb.IngestBatch(ns, items[i*500:(i+1)*500]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Checkpoint(tb); err != nil {
		t.Fatal(err)
	}
	states := tb.TenantSnapshotBarrier(nil)
	for i, ts := range states {
		if ts.Summary != nil {
			if states[i].Blob, err = core.EncodeSummary(ts.Summary); err != nil {
				t.Fatal(err)
			}
			states[i].Summary = nil
		}
		if ts.NS == "eu" {
			states[i].Blob = append([]byte("SS09"), states[i].Blob[4:]...)
		}
	}
	rewriteTenantCheckpoint(t, filepath.Join(dir, "checkpoint.ckpt"), states)
	if _, _, err := tb.IngestBatch("eu", items[1500:]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (%v)", err)
	}
	before := map[string][]byte{}
	for _, seg := range segs {
		if before[seg], err = os.ReadFile(seg); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := persist.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Recover(newTable(t, opts)); err == nil || !strings.Contains(err.Error(), "another version") {
		t.Fatalf("recovering a tail into a namespace another version wrote: %v, want an error naming it", err)
	}
	for seg, b := range before {
		if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, b) {
			t.Errorf("failed recovery changed %s (%d → %d bytes, %v)", filepath.Base(seg), len(b), len(after), err)
		}
	}
}

// ss01Of rewrites an SS02 blob as the SS01 an earlier build wrote for
// the same summary: the same fields in the same order, each a u64.
func ss01Of(t *testing.T, ss02 []byte) []byte {
	t.Helper()
	le := binary.LittleEndian
	r := wire.NewReader(ss02)
	r.Magic("SS02")
	k, n, cnt := r.Uvarint(), r.Uvarint(), r.Uvarint()
	out := le.AppendUint64(le.AppendUint64(le.AppendUint64([]byte("SS01"), k), n), cnt)
	for range cnt {
		item, count, errv := r.U64(), r.Uvarint(), r.Uvarint()
		out = le.AppendUint64(le.AppendUint64(le.AppendUint64(out, item), count), errv)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	return out
}

// rewriteTenantCheckpoint rewrites the SFCKPT02 file at path with the
// given tenant manifest, keeping its algorithm, stream position and WAL
// segment: the body is u32 algo length | algo | u64 n | u64 walSeq |
// u32 shard count (0) | u32 tenant count | per tenant u16 ns length |
// ns | u32 k | u64 n | u32 blob length | blob, then a CRC-32C of it.
func rewriteTenantCheckpoint(t *testing.T, path string, tenants []persist.TenantState) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(data)
	r.Magic("SFCKPT02")
	r.Bytes(uint64(r.U32()) + 8 + 8) // algo, n, walSeq
	if shards := r.U32(); r.Err() != nil || shards != 0 {
		t.Fatalf("not a tenant checkpoint (%d shards, %v)", shards, r.Err())
	}
	le := binary.LittleEndian
	out := le.AppendUint32(bytes.Clone(data[:len(data)-r.Len()]), uint32(len(tenants)))
	for _, ts := range tenants {
		out = append(le.AppendUint16(out, uint16(len(ts.NS))), ts.NS...)
		out = le.AppendUint64(le.AppendUint32(out, uint32(ts.K)), uint64(ts.N))
		out = append(le.AppendUint32(out, uint32(len(ts.Blob))), ts.Blob...)
	}
	out = le.AppendUint32(out, crc32.Checksum(out[len("SFCKPT02"):], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}
