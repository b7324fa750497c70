package persist

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
)

// segmentBytes assembles a syntactically valid segment in memory.
func segmentBytes(seq uint64, startN int64, batches ...[]core.Item) []byte {
	var out []byte
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(startN))
	out = append(out, hdr[:]...)
	for _, b := range batches {
		out = appendRecord(out, recUnit, "", 0, b, 0, 0)
	}
	return out
}

// FuzzWALReplay: arbitrary bytes dropped into the data directory as a
// WAL segment must never panic recovery, and whenever recovery
// succeeds it must have committed a stable prefix: recovering the
// (now truncated) directory a second time reproduces the same stream
// position with nothing further to truncate. The target is a counter
// summary whose Update panics on non-positive counts, so forged
// weighted records exercise the panic-to-error containment too.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(segMagic))
	f.Add(segmentBytes(1, 0))
	f.Add(segmentBytes(1, 0, []core.Item{1, 2, 3, 2, 1}, []core.Item{9, 9, 9}))
	f.Add(segmentBytes(2, 77, []core.Item{5}))
	valid := segmentBytes(1, 0, []core.Item{1, 2, 3})
	f.Add(valid[:len(valid)-3]) // torn payload
	crcFlip := append([]byte(nil), segmentBytes(1, 0, []core.Item{4, 4})...)
	crcFlip[segHeaderSize+5] ^= 0xFF
	f.Add(crcFlip)
	// A forged weighted record with a negative count, aimed at a
	// counter-based target: replay must contain the panic.
	neg := segmentBytes(1, 0)
	neg = appendRecord(neg, recWeighted, "", 0, nil, 123, -5)
	f.Add(neg)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(Options{Dir: dir, Algo: "SSH"})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := st.Recover(core.NewConcurrent(counters.NewSpaceSavingHeap(8)))
		if err != nil {
			return // rejected (bad magic, discontinuity, …) — fine, no panic
		}
		st.Close()
		// Success means the valid prefix is now the whole file: replaying
		// again must land on the same position, cleanly.
		st2, err := Open(Options{Dir: dir, Algo: "SSH"})
		if err != nil {
			t.Fatal(err)
		}
		stats2, err := st2.Recover(core.NewConcurrent(counters.NewSpaceSavingHeap(8)))
		if err != nil {
			t.Fatalf("second recovery failed after a successful first: %v", err)
		}
		st2.Close()
		if stats2.RecoveredN != stats.RecoveredN || stats2.TruncatedSegments != 0 {
			t.Fatalf("unstable prefix: first %+v, second %+v", stats, stats2)
		}
	})
}

// TestFuzzSeedsDirect runs the seed corpus through the fuzz body so the
// containment properties are exercised in every plain `go test` run,
// not only under -fuzz.
func TestFuzzSeedsDirect(t *testing.T) {
	neg := segmentBytes(1, 0)
	neg = appendRecord(neg, recWeighted, "", 0, nil, 123, -5)
	valid := segmentBytes(1, 0, []core.Item{1, 2, 3})
	seeds := [][]byte{
		nil,
		[]byte(segMagic),
		segmentBytes(1, 0, []core.Item{1, 2, 3, 2, 1}, []core.Item{9, 9, 9}),
		valid[:len(valid)-3],
		neg,
		bytes.Repeat([]byte{0xAB}, 300),
	}
	for i, data := range seeds {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(Options{Dir: dir, Algo: "SSH"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recover(core.NewConcurrent(counters.NewSpaceSavingHeap(8))); err == nil {
			st.Close()
		}
		_ = i
	}
	// The negative-count forge at the tail: the frame is whole and
	// CRC-clean, so no crash left it — it was written as it stands — and
	// recovery fails on it rather than trimming it as a tear, leaving
	// the segment byte-identical.
	dir := t.TempDir()
	poisoned := segmentBytes(1, 0, []core.Item{7, 7})
	poisoned = appendRecord(poisoned, recWeighted, "", 0, nil, 123, -5)
	seg := filepath.Join(dir, "wal-0000000001.seg")
	if err := os.WriteFile(seg, poisoned, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{Dir: dir, Algo: "SSH"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(core.NewConcurrent(counters.NewSpaceSavingHeap(8))); err == nil {
		t.Fatal("recovered past a whole, CRC-clean record that does not apply")
	}
	if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, poisoned) {
		t.Fatalf("failed recovery changed the segment (%d → %d bytes, %v)", len(poisoned), len(after), err)
	}

	// Poison with valid records BEHIND it is not a tail to trim —
	// truncating would drop acknowledged data — so recovery must fail
	// loudly instead.
	dir2 := t.TempDir()
	mid := segmentBytes(1, 0, []core.Item{7, 7})
	mid = appendRecord(mid, recWeighted, "", 0, nil, 123, -5)
	mid = appendRecord(mid, recUnit, "", 0, []core.Item{8, 8, 8}, 0, 0)
	if err := os.WriteFile(filepath.Join(dir2, "wal-0000000001.seg"), mid, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir2, Algo: "SSH"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Recover(core.NewConcurrent(counters.NewSpaceSavingHeap(8))); err == nil {
		t.Fatal("poison record with valid records after it must fail recovery, not truncate them away")
	}
}

// budgetLog is a tenant target that records the budgets replay hands
// it.
type budgetLog struct {
	*core.Concurrent
	ks []int
}

func (b *budgetLog) UpdateTenantBatch(_ string, k int, items []core.Item) error {
	b.ks = append(b.ks, k)
	b.UpdateBatch(items)
	return nil
}

func (b *budgetLog) TenantSnapshotBarrier(func(int64)) []TenantState { return nil }
func (b *budgetLog) RestoreTenants([]TenantState) error              { return nil }

// TestTenantRecordBudgetBounded: replay hands a tenant record's k to the
// table, which builds a store of k counters, so the parser holds k to
// counters.MaxBudget, the bound every decoder holds, and a CRC-valid
// record claiming more does not replay: in front of valid records it
// fails recovery.
func TestTenantRecordBudgetBounded(t *testing.T) {
	var rec record
	for k, ok := range map[int]bool{counters.MaxBudget: true, counters.MaxBudget + 1: false} {
		frame := appendRecord(nil, recTenant, "eu", k, []core.Item{1}, 0, 0)
		if err := rec.parse(frame[recHeaderSize:]); (err == nil) != ok {
			t.Errorf("tenant record with k = %d: parse error %v, want accepted = %v", k, err, ok)
		}
	}
	seg := appendRecord(segmentBytes(1, 0), recTenant, "eu", 4, []core.Item{1}, 0, 0)
	seg = appendRecord(seg, recTenant, "eu", counters.MaxBudget+1, []core.Item{1}, 0, 0)
	seg = appendRecord(seg, recTenant, "eu", 4, []core.Item{2}, 0, 0)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000001.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{Dir: dir, Algo: "SSH"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	target := &budgetLog{Concurrent: core.NewConcurrent(counters.NewSpaceSavingHeap(8))}
	if _, err := st.Recover(target); err == nil {
		t.Fatal("recovered past a tenant record with k = MaxBudget + 1")
	}
	if len(target.ks) != 1 || target.ks[0] != 4 {
		t.Fatalf("replay handed the target budgets %v, want only the first record's 4", target.ks)
	}
}
