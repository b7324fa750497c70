package tenant

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/persist"
)

// Persister is what the table needs from the durability layer: the
// single-tenant append surface plus tenant-tagged batches.
// persist.Store satisfies it.
type Persister interface {
	core.Persister
	AppendTenantBatch(ns string, k int, items []core.Item)
}

// Options configures a Table.
type Options struct {
	// DefaultPhi is the heavy-hitter threshold for namespaces without an
	// override; each tenant's counter budget is k = ⌊1/φ⌋+1. Required.
	DefaultPhi float64
	// MaxResident caps how many tenants keep decoded summaries at once;
	// beyond it, CLOCK eviction encodes cold tenants to their wire
	// blobs. 0 means unlimited (no eviction).
	MaxResident int
	// Phi holds per-namespace φ overrides: a namespace's query
	// threshold, and its counter budget when it is first instantiated.
	Phi map[string]float64
}

// ErrNoNamespace is the error of a read naming a namespace that was
// never created; reads never create one.
var ErrNoNamespace = errors.New("tenant: no such namespace")

// tenantState is one namespace's entry. Exactly one of sum/blob is set
// outside of transitions: sum while resident, blob while evicted. blob
// slices are immutable once created, so snapshots may share them
// without copying.
type tenantState struct {
	ns   string
	k    int
	n    int64
	sum  *counters.SpaceSavingHeap
	blob []byte

	ref      bool // CLOCK second-chance bit
	clockIdx int  // position in Table.clock, -1 while evicted
}

// Table is the namespace-keyed summary store. One mutex guards the
// whole table: per-tenant summaries are tiny (k counters), so the
// critical sections are short, and a single lock makes the
// WAL-append-before-apply ordering and the snapshot barrier trivial.
// It implements persist.TenantTarget, and serve.Target via the default
// namespace "".
type Table struct {
	mu      sync.Mutex
	opts    Options
	tenants map[string]*tenantState
	clock   []*tenantState // resident tenants, CLOCK ring
	hand    int
	n       int64 // global stream position (== WAL accounting)
	persist Persister

	blobBytes int64
	created   int64
	evictions int64
	reloads   int64
}

// NewTable builds an empty table.
func NewTable(opts Options) (*Table, error) {
	if _, err := counters.Budget(opts.DefaultPhi, 1); err != nil {
		return nil, fmt.Errorf("tenant: DefaultPhi: %w", err)
	}
	for ns, phi := range opts.Phi {
		if _, err := counters.Budget(phi, 1); err != nil {
			return nil, fmt.Errorf("tenant: φ override for %q: %w", ns, err)
		}
		if len(ns) > persist.MaxNamespaceLen {
			return nil, fmt.Errorf("tenant: namespace %q exceeds %d bytes", ns, persist.MaxNamespaceLen)
		}
	}
	t := &Table{
		opts:    opts,
		tenants: make(map[string]*tenantState),
	}
	if opts.Phi != nil {
		// Copy: the caller's map must not mutate under us.
		t.opts.Phi = make(map[string]float64, len(opts.Phi))
		for ns, phi := range opts.Phi {
			t.opts.Phi[ns] = phi
		}
	}
	return t, nil
}

// phiFor returns the namespace's query threshold (override or default).
func (t *Table) phiFor(ns string) float64 {
	if phi, ok := t.opts.Phi[ns]; ok {
		return phi
	}
	return t.opts.DefaultPhi
}

// budgetFor returns the namespace's counter budget for its φ, which
// NewTable has held within counters.Budget's bound.
func (t *Table) budgetFor(ns string) int {
	k, err := counters.Budget(t.phiFor(ns), 1)
	if err != nil {
		panic(fmt.Sprintf("tenant: %q: %v", ns, err))
	}
	return k
}

// touchLocked returns the namespace's state, instantiating or reloading
// it as needed and marking it recently used. k > 0 forces the counter
// budget (WAL replay, which must rebuild the summary the log was
// written against); k == 0 derives it from the namespace's φ.
func (t *Table) touchLocked(ns string, k int) (*tenantState, error) {
	ts := t.tenants[ns]
	if ts == nil {
		if k <= 0 {
			k = t.budgetFor(ns)
		}
		ts = &tenantState{ns: ns, k: k, sum: counters.NewSpaceSavingHeap(k), clockIdx: -1}
		t.tenants[ns] = ts
		t.addClockLocked(ts)
		t.created++
	} else if ts.sum == nil {
		sum, err := counters.DecodeSpaceSavingHeap(ts.blob)
		if err != nil {
			return nil, fmt.Errorf("tenant: reloading %q: %w", ns, err)
		}
		t.blobBytes -= int64(len(ts.blob))
		ts.blob = nil
		ts.sum = sum
		ts.n = sum.N()
		t.addClockLocked(ts)
		t.reloads++
	}
	if k > 0 && ts.k != k {
		return nil, fmt.Errorf("tenant: %q instantiated with budget k=%d but the log says k=%d", ns, ts.k, k)
	}
	ts.ref = true
	return ts, nil
}

func (t *Table) addClockLocked(ts *tenantState) {
	ts.clockIdx = len(t.clock)
	t.clock = append(t.clock, ts)
}

func (t *Table) removeClockLocked(ts *tenantState) {
	i, last := ts.clockIdx, len(t.clock)-1
	t.clock[i] = t.clock[last]
	t.clock[i].clockIdx = i
	t.clock[last] = nil
	t.clock = t.clock[:last]
	ts.clockIdx = -1
}

// evictLocked encodes ts to its wire blob (SS02, allocated at its exact
// length, so blobBytes counts the bytes the table holds) and drops its
// summary. SS02 round-trips bit-identically, so the durable state a
// checkpoint would capture is unchanged by the eviction.
func (t *Table) evictLocked(ts *tenantState) {
	blob, err := ts.sum.MarshalBinary()
	if err != nil {
		// SSH always encodes; a failure here is memory corruption.
		panic(fmt.Sprintf("tenant: encoding %q for eviction: %v", ts.ns, err))
	}
	ts.sum = nil
	ts.blob = blob
	t.blobBytes += int64(len(blob))
	t.removeClockLocked(ts)
	t.evictions++
}

// maybeEvictLocked enforces the residency cap with a CLOCK sweep,
// never evicting keep (the tenant the current operation holds).
func (t *Table) maybeEvictLocked(keep *tenantState) {
	max := t.opts.MaxResident
	if max <= 0 {
		return
	}
	for len(t.clock) > max {
		// Two sweeps suffice: the first clears every second-chance bit,
		// the second finds a victim. +1 absorbs the keep skip.
		evicted := false
		for pass := 0; pass < 2*len(t.clock)+1; pass++ {
			if t.hand >= len(t.clock) {
				t.hand = 0
			}
			ts := t.clock[t.hand]
			if ts == keep {
				t.hand++
				continue
			}
			if ts.ref {
				ts.ref = false
				t.hand++
				continue
			}
			t.evictLocked(ts)
			evicted = true
			break
		}
		if !evicted {
			return // only keep is resident; nothing to shed
		}
	}
}

// IngestBatch applies one unit-count batch to namespace ns, creating it
// on first touch. The batch is offered to the write-ahead log before it
// is applied, under the table lock, so log order equals apply order.
// It returns the tenant's and the table's stream positions.
func (t *Table) IngestBatch(ns string, items []core.Item) (tenantN, totalN int64, err error) {
	if len(ns) > persist.MaxNamespaceLen {
		return 0, 0, fmt.Errorf("tenant: namespace exceeds %d bytes", persist.MaxNamespaceLen)
	}
	if len(items) == 0 {
		t.mu.Lock()
		defer t.mu.Unlock()
		var n int64
		if ts := t.tenants[ns]; ts != nil {
			n = ts.n
		}
		return n, t.n, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ts, err := t.touchLocked(ns, 0)
	if err != nil {
		return 0, 0, err
	}
	if t.persist != nil {
		t.persist.AppendTenantBatch(ns, ts.k, items)
	}
	ts.sum.UpdateBatch(items)
	ts.n += int64(len(items))
	t.n += int64(len(items))
	t.maybeEvictLocked(ts)
	return ts.n, t.n, nil
}

// --- serve.Target / core.Summary via the default namespace ---

// Name returns the underlying algorithm code.
func (t *Table) Name() string { return "SSH" }

// Update applies a weighted update to the default namespace, then logs
// it. Counts must be positive (Space-Saving is insert-only); a rejected
// count panics before it reaches the log.
func (t *Table) Update(x core.Item, count int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts, err := t.touchLocked("", 0)
	if err != nil {
		panic(err) // "" always instantiates; only a reload can fail
	}
	ts.sum.Update(x, count)
	if t.persist != nil {
		t.persist.AppendUpdate(x, count)
	}
	ts.n += count
	t.n += count
	t.maybeEvictLocked(ts)
}

// UpdateBatch applies a unit-count batch to the default namespace.
func (t *Table) UpdateBatch(items []core.Item) {
	if _, _, err := t.IngestBatch("", items); err != nil {
		panic(err)
	}
}

// Estimate answers for the default namespace: 0 if it was never
// created. core.Summary reads carry no error, so a default namespace
// that cannot be reloaded answers 0 here too; TenantSnapshot reports
// it.
func (t *Table) Estimate(x core.Item) (est int64) {
	_ = t.read("", func(sum *counters.SpaceSavingHeap) { est = sum.Estimate(x) })
	return est
}

// Query answers for the default namespace (nil if it was never
// created; see Estimate for a failed reload).
func (t *Table) Query(threshold int64) (out []core.ItemCount) {
	_ = t.read("", func(sum *counters.SpaceSavingHeap) { out = sum.Query(threshold) })
	return out
}

// N returns the table-wide stream position (the sum of every tenant's,
// equal to the write-ahead log's accounting).
func (t *Table) N() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Bytes reports the footprint of the state a checkpoint holds: every
// resident summary's Bytes plus the evicted tenants' blobs, which
// TenantSnapshotBarrier hands over as they are.
func (t *Table) Bytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := int(t.blobBytes)
	for _, ts := range t.clock {
		total += ts.sum.Bytes()
	}
	return total
}

// Snapshot returns an independent clone of the default namespace (an
// empty summary if it was never touched), so the table slots into
// snapshot-based serving and cluster pulls like any single summary.
func (t *Table) Snapshot() core.Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.tenants[""]
	if ts == nil {
		return counters.NewSpaceSavingHeap(t.budgetFor(""))
	}
	if ts.sum == nil {
		sum, err := counters.DecodeSpaceSavingHeap(ts.blob)
		if err != nil {
			panic(fmt.Sprintf("tenant: decoding evicted default namespace: %v", err))
		}
		return sum
	}
	return ts.sum.Clone()
}

// --- tenant-scoped reads (all touch the tenant: an evicted namespace
// is decoded back into residency before answering) ---

// read runs f on the namespace's summary under the table lock. It
// fails with ErrNoNamespace for a namespace never created and with the
// reload's error for an evicted one whose blob does not decode.
func (t *Table) read(ns string, f func(*counters.SpaceSavingHeap)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tenants[ns] == nil {
		return ErrNoNamespace
	}
	ts, err := t.touchLocked(ns, 0)
	if err != nil {
		return err
	}
	f(ts.sum)
	t.maybeEvictLocked(ts)
	return nil
}

// TenantSnapshot returns an independent copy of the namespace's
// summary and its query threshold φ, so one request answers from one
// state. It fails with ErrNoNamespace for a namespace never created
// and with the reload's error for an evicted one whose blob does not
// decode.
func (t *Table) TenantSnapshot(ns string) (sum *counters.SpaceSavingHeap, phi float64, err error) {
	err = t.read(ns, func(s *counters.SpaceSavingHeap) { sum = s.Clone() })
	return sum, t.phiFor(ns), err
}

// Info describes one namespace.
type Info struct {
	NS       string  `json:"ns"`
	K        int     `json:"k"`
	Phi      float64 `json:"phi"`
	N        int64   `json:"n"`
	Resident bool    `json:"resident"`
}

// TenantInfo returns one namespace's metadata without touching it
// (stats must not perturb eviction order).
func (t *Table) TenantInfo(ns string) (Info, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.tenants[ns]
	if ts == nil {
		return Info{}, false
	}
	return t.infoLocked(ts), true
}

func (t *Table) infoLocked(ts *tenantState) Info {
	return Info{NS: ts.ns, K: ts.k, Phi: t.phiFor(ts.ns), N: ts.n, Resident: ts.sum != nil}
}

// Namespaces lists up to limit namespaces in lexicographic order
// (limit <= 0 means all).
func (t *Table) Namespaces(limit int) []Info {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Info, 0, len(t.tenants))
	for _, ts := range t.tenants {
		out = append(out, t.infoLocked(ts))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NS < out[j].NS })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Stats is the table-level health surface: the tenants section of
// freqd's stats document (see obs.Registry.Stats for the tags).
type Stats struct {
	Tenants   int   `json:"tenants" metric:"freq_tenants" help:"Namespaces known to the table."`
	Resident  int   `json:"resident" metric:"freq_tenants_resident" help:"Namespaces with resident (decoded) summaries."`
	N         int64 `json:"n"`
	BlobBytes int64 `json:"blob_bytes" metric:"freq_tenants_blob_bytes" help:"Encoded bytes of evicted namespace summaries."`
	Created   int64 `json:"created" metric:"freq_tenants_created_total" help:"Namespaces created."`
	Evictions int64 `json:"evictions" metric:"freq_tenants_evictions_total" help:"Namespace summary evictions."`
	Reloads   int64 `json:"reloads" metric:"freq_tenants_reloads_total" help:"Namespace summary reloads after eviction."`
}

// TableStats returns a consistent snapshot of the table's counters.
func (t *Table) TableStats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Tenants:   len(t.tenants),
		Resident:  len(t.clock),
		N:         t.n,
		BlobBytes: t.blobBytes,
		Created:   t.created,
		Evictions: t.evictions,
		Reloads:   t.reloads,
	}
}

// --- persist.TenantTarget ---

// LiveN reports the live stream position for recovery verification.
func (t *Table) LiveN() int64 { return t.N() }

// PersistTo routes every subsequent update through p under the table
// lock: a batch before it is applied, a weighted update once applied.
// p must also implement AppendTenantBatch (persist.Store does); wiring
// a log that cannot carry tenant records is a startup bug, caught here.
func (t *Table) PersistTo(p core.Persister) {
	tp, ok := p.(Persister)
	if !ok {
		panic("tenant: persister lacks AppendTenantBatch")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.persist = tp
}

// UpdateTenantBatch applies one replayed tenant-tagged batch. It runs
// only during recovery (before PersistTo), so nothing is re-appended.
// A namespace whose blob does not decode, or whose budget the log
// contradicts, fails the batch, and recovery with it.
func (t *Table) UpdateTenantBatch(ns string, k int, items []core.Item) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts, err := t.touchLocked(ns, k)
	if err != nil {
		return err
	}
	ts.sum.UpdateBatch(items)
	ts.n += int64(len(items))
	t.n += int64(len(items))
	t.maybeEvictLocked(ts)
	return nil
}

// SnapshotBarrier is the single-tenant barrier; persist prefers
// TenantSnapshotBarrier for this table, so this exists only to satisfy
// persist.Target and covers the default namespace alone.
func (t *Table) SnapshotBarrier(cut func(n int64)) []core.Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cut != nil {
		cut(t.n)
	}
	ts := t.tenants[""]
	if ts == nil || ts.sum == nil {
		return []core.Summary{counters.NewSpaceSavingHeap(t.budgetFor(""))}
	}
	return []core.Summary{ts.sum.Clone()}
}

// RestoreState injects a recovered single summary into the default
// namespace; the tenant-aware recovery path uses RestoreTenants
// instead, so this too exists for persist.Target completeness.
func (t *Table) RestoreState(shards []core.Summary) error {
	if len(shards) != 1 {
		return fmt.Errorf("tenant: table restore needs 1 shard, got %d", len(shards))
	}
	sum, ok := shards[0].(*counters.SpaceSavingHeap)
	if !ok {
		return fmt.Errorf("tenant: table restore needs a Space-Saving summary, got %s", shards[0].Name())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.tenants) != 0 || t.n != 0 {
		return fmt.Errorf("tenant: restore into a non-empty table")
	}
	ts := &tenantState{ns: "", k: sum.K(), n: sum.N(), sum: sum, clockIdx: -1}
	t.tenants[""] = ts
	t.addClockLocked(ts)
	t.n = ts.n
	return nil
}

// TenantSnapshotBarrier clones every namespace — resident ones as deep
// summary copies, evicted ones as their (immutable) blobs — and cuts
// the log at the table's stream position, all under one lock hold, so
// "state as of N" and "records after N" partition the stream exactly.
// Entries are sorted by namespace for deterministic manifests.
func (t *Table) TenantSnapshotBarrier(cut func(n int64)) []persist.TenantState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cut != nil {
		cut(t.n)
	}
	out := make([]persist.TenantState, 0, len(t.tenants))
	for _, ts := range t.tenants {
		st := persist.TenantState{NS: ts.ns, K: ts.k, N: ts.n}
		if ts.sum != nil {
			st.Summary = ts.sum.Clone()
		} else {
			st.Blob = ts.blob
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NS < out[j].NS })
	return out
}

// RestoreTenants installs recovered tenant state into an empty table.
// Blobs stay encoded until each tenant is next touched; a restart with
// a million namespaces decodes none of them up front. A K == 0 entry is a pre-tenant checkpoint adopted into the
// named namespace; its blob is decoded now to learn the budget.
func (t *Table) RestoreTenants(states []persist.TenantState) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.tenants) != 0 || t.n != 0 {
		return fmt.Errorf("tenant: restore into a non-empty table")
	}
	for _, st := range states {
		if _, dup := t.tenants[st.NS]; dup {
			return fmt.Errorf("tenant: duplicate namespace %q in checkpoint", st.NS)
		}
		ts := &tenantState{ns: st.NS, clockIdx: -1}
		switch {
		case st.K == 0:
			sum, err := counters.DecodeSpaceSavingHeap(st.Blob)
			if err != nil {
				return fmt.Errorf("tenant: decoding legacy checkpoint for %q: %w", st.NS, err)
			}
			ts.k, ts.n, ts.sum = sum.K(), sum.N(), sum
			t.addClockLocked(ts)
		case st.Blob != nil:
			ts.k, ts.n, ts.blob = st.K, st.N, st.Blob
			t.blobBytes += int64(len(st.Blob))
		default:
			return fmt.Errorf("tenant: restore entry for %q carries no state", st.NS)
		}
		t.tenants[st.NS] = ts
		t.n += ts.n
	}
	t.maybeEvictLocked(nil)
	return nil
}
