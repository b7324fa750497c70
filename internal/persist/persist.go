// Package persist makes a freqd summary durable: a segmented
// write-ahead log of ingest batches plus checkpoint snapshots, so a
// crashed server restarts from its last durable position instead of
// replaying the whole stream — the operating mode the paper's
// ISP/search-engine deployments assume for their long-lived summaries.
// The store counts the log's tail, the bytes past the last
// checkpoint's cut, and its checkpoint loop (Store.AutoCheckpoint)
// checkpoints when that tail reaches max(4 MiB, 8 × the summary's
// Bytes()), or when a clock interval has passed with a non-empty tail.
// A restart therefore replays about that trigger's worth of log, plus
// an overshoot: the loop polls every ckptPoll and ingest continues
// while a checkpoint is taken, so the tail can pass the trigger by the
// ingest rate × (ckptPoll + the checkpoint's duration).
//
// On-disk layout (all little-endian), inside one data directory:
//
//	wal-NNNNNNNNNN.seg   WAL segments, ascending sequence numbers
//	checkpoint.ckpt      latest checkpoint (atomically renamed into place)
//
// Each segment starts with a 24-byte header —
//
//	offset  size  field
//	0       8     magic "SFWAL001"
//	8       8     sequence number (must match the filename)
//	16      8     startN: the stream position (Summary.N) the log had
//	              when this segment was created
//
// — followed by records, each framed as
//
//	u32 payload length | u32 CRC-32C of payload | payload
//
// where the payload is one kind byte then the body: kind 0 is a
// unit-count batch (the stream.AppendRaw item encoding, exactly the
// slice passed to UpdateBatch, boundaries preserved — order-sensitive
// summaries like Misra–Gries replay bit-identically only if batch
// boundaries survive), kind 1 is a single weighted update (item,
// count), covering the scalar Update path and turnstile deletions.
//
// The contract with the core wrappers (core.Persister): every batch is
// offered to the log under the ingest lock before it is applied, and
// every weighted update is applied first and logged only once the
// summary has accepted it, under the same lock or barrier. Log order
// therefore equals apply order, a crash can only lose the un-synced
// tail, never reorder it, and a count the summary rejects never
// reaches the log. Checkpoints use core.SnapshotBarrier to clone
// the summary and rotate the log at one quiesced instant: the
// checkpoint blob plus the segments at or after its cut reproduce the
// stream exactly, and older segments are deleted.
//
// Durability is group-committed: an append encodes its record into an
// in-memory staging buffer (microseconds, under the ingest lock) and a
// single writer goroutine drains staged chunks to the segment file,
// with fsync on a policy-controlled cadence off every hot lock. fsync
// policy "always" makes the append itself write and sync — nothing
// acknowledged is ever lost; "interval" bounds loss to one commit
// window; "never" leaves syncing to the OS. If staging outruns the
// disk past a fixed cap, appends write inline — backpressure instead
// of unbounded memory.
//
// Recovery (Store.Recover) loads the latest checkpoint — per-shard
// Encode blobs, decoded through the caller-supplied registry dispatch —
// then replays the WAL tail through UpdateBatch/Update, verifying
// stream-position continuity at every segment boundary. A torn tail (a
// crash mid-write: a short header or payload, or a CRC mismatch, in the
// last frame) is truncated to the last whole record. Anything else fails
// recovery rather than drop acknowledged data: a torn frame with valid
// frames or segments behind it, or a whole, CRC-clean record that does
// not apply (say, into a namespace whose blob another version wrote),
// which no crash leaves. The error names the segment, the record's
// offset and why, and the segment is left as it is, for a build that
// can apply it; to give the record up instead, cut its frame (8 header
// bytes and the payload) out of the last segment by hand.
package persist

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/obs"
)

// FsyncPolicy says when WAL appends become durable.
type FsyncPolicy int

const (
	// FsyncInterval group-commits: appends are staged in memory and the
	// writer syncs the segment every Options.FsyncInterval, so a crash
	// loses at most one interval of acknowledged ingest. The default.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways writes and syncs inside every append: nothing
	// acknowledged is ever lost, at the cost of one fsync per batch.
	FsyncAlways
	// FsyncNever leaves syncing to the OS page cache (and segment
	// rotation/close, which always sync): fastest, weakest.
	FsyncNever
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy parses the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync policy %q (have always, interval, never)", s)
}

// Target is the surface a durable summary must expose: the concurrency
// plane (core.Concurrent, core.Pipelined) and tenant.Table satisfy it.
type Target interface {
	core.Summary
	core.BatchUpdater
	// LiveN reports the live (non-snapshot) stream position; recovery
	// verifies it against the log's continuity accounting.
	LiveN() int64
	// PersistTo routes subsequent updates through the log; see
	// core.Persister.
	PersistTo(core.Persister)
	// SnapshotBarrier clones the state and cuts the log at one quiesced
	// instant; see the plane's SnapshotBarrier (core.Concurrent).
	SnapshotBarrier(cut func(n int64)) []core.Summary
	// RestoreState injects recovered per-shard state at startup.
	RestoreState([]core.Summary) error
}

// TenantState is one namespace's durable state: its counter budget at
// instantiation, its stream position, and its summary — decoded
// (Summary set) on the snapshot side, or still encoded (Blob set) on
// the restore side, where the multi-tenant table keeps blobs inert
// until the tenant is touched. N rides in the manifest so a restore can
// verify global stream continuity without decoding a single blob.
type TenantState struct {
	NS      string
	K       int
	N       int64
	Summary core.Summary
	Blob    []byte
}

// TenantTarget extends Target for the multi-tenant table: tenant-tagged
// WAL records replay through UpdateTenantBatch, and checkpoints carry a
// named per-tenant manifest instead of anonymous shard blobs. A durable
// target that does not implement TenantTarget never sees recTenant
// records (they are only written through AppendTenantBatch) and keeps
// the SFCKPT01 checkpoint format.
type TenantTarget interface {
	Target
	// UpdateTenantBatch applies one replayed batch to namespace ns,
	// lazily instantiating it with k counters if absent. It fails when
	// the namespace's blob does not decode or its budget is not k.
	UpdateTenantBatch(ns string, k int, items []core.Item) error
	// TenantSnapshotBarrier clones every known tenant (resident and
	// evicted) and cuts the log at one quiesced instant, mirroring
	// Target.SnapshotBarrier.
	TenantSnapshotBarrier(cut func(n int64)) []TenantState
	// RestoreTenants injects recovered tenant state at startup; entries
	// arrive with Blob set and may be decoded lazily.
	RestoreTenants([]TenantState) error
}

// Options configures a Store.
type Options struct {
	// Dir is the data directory (required); created if absent.
	Dir string
	// Algo is the algorithm label stamped into checkpoints; recovery
	// refuses a checkpoint taken for a different algorithm, so pointing
	// freqd -algo CM at an SSH data directory fails fast instead of
	// merging incompatible state.
	Algo string
	// Fsync is the WAL durability policy.
	Fsync FsyncPolicy
	// FsyncInterval is the group-commit window for FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// SegmentMaxBytes rotates the active segment when it grows past this
	// size (default 64 MiB), bounding both per-file replay work and the
	// space reclaimed lazily at checkpoints.
	SegmentMaxBytes int64
	// Decode turns a checkpoint blob back into a summary — the root
	// package's magic dispatch (streamfreq.Decode), injected so this
	// package depends only on core. Required to recover a checkpoint.
	Decode func([]byte) (core.Summary, error)
}

// drainThresholdBytes is the staging high-water mark: an append that
// fills staging past it writes the whole chunk out inline. One write()
// per ~threshold of log amortizes the syscall and filesystem cost far
// below a write-per-batch, bounds staging memory at a few hundred KiB,
// and — when the disk genuinely cannot keep up — makes the appender pay
// the wait, which is exactly the backpressure a log must exert. Records
// under the threshold are drained by the background writer's tick, so
// an idle tail never lingers in memory beyond one commit window.
const drainThresholdBytes = 256 << 10

// Store is the durability state of one summary. It implements
// core.Persister.
//
// Locking: mu guards the staging buffer, stream accounting, and the
// failure latch — everything an append touches; ioMu guards the active
// segment, rotation, and file writes. Drains hold mu only to detach the
// staged chunk (lock coupling: ioMu is acquired before mu is released,
// so chunks reach the file in stage order), then write under ioMu
// alone, so appends keep staging while the disk works. fsync runs under
// neither — only the per-segment syncMu, which exists to serialize
// against close.
type Store struct {
	opts Options

	mu        sync.Mutex
	pending   []byte   // staged records not yet handed to the file
	spares    [][]byte // recycled chunk buffers (bounded freelist)
	walN      int64    // stream position at the end of the log (incl. staged)
	failed    error    // first failure; latches the store read-only
	closed    bool
	recovered bool

	// The counters of Stats the append, checkpoint and recovery paths
	// keep, under mu; Stats derives the rest.
	stats        Stats
	lastCkptTime time.Time

	ioMu     sync.Mutex
	seg      *segment // active segment, under ioMu (nil until Recover)
	nextSeq  uint64   // under ioMu after Recover
	writtenN int64    // stream position handed to the OS, under ioMu

	// Observability mirrors, readable without locks.
	durableN  atomic.Int64 // stream position fsynced to disk
	fsyncs    atomic.Int64
	segCount  atomic.Int32
	activeSeq atomic.Uint64

	// ckptMu serializes whole checkpoints, and Close against them.
	ckptMu sync.Mutex
	// loopStop stops the checkpoint loop (AutoCheckpoint) and loopDone
	// closes when it has exited; under mu, nil when no loop runs.
	loopStop chan struct{}
	loopDone chan struct{}

	// appendH/fsyncH time the two WAL latencies that matter
	// operationally: what an ingest append pays (staging, plus the
	// inline write or fsync its policy charges it) and what one fsync
	// costs the disk. Set by Instrument before the store is shared;
	// nil means uninstrumented and the hot path skips the clock reads.
	appendH *obs.Histogram
	fsyncH  *obs.Histogram

	writeStop chan struct{}
	writeDone chan struct{}
}

// Instrument registers the store's stats on reg (its WAL and
// checkpoint sections, read once per scrape) and enables the
// append/fsync latency histograms. Call at setup time (before the store
// is shared with writers), like PersistTo.
func (st *Store) Instrument(reg *obs.Registry) {
	st.appendH = reg.Histogram("freq_wal_append_seconds",
		"WAL append latency as paid by the ingest path (staging plus any inline write or fsync).",
		obs.LatencyOpts())
	st.fsyncH = reg.Histogram("freq_wal_fsync_seconds",
		"WAL fsync latency.", obs.LatencyOpts())
	reg.Stats(func() any { return st.Stats() })
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms freqd runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Open prepares a Store over dir: creates the directory, sweeps
// leftover temporaries from an interrupted checkpoint, and inventories
// existing segments. It does not touch summary state — call Recover
// next (even on a fresh directory), then Target.PersistTo(store).
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("persist: Options.Dir is required")
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
	if opts.SegmentMaxBytes <= 0 {
		opts.SegmentMaxBytes = 64 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data dir: %w", err)
	}
	tmps, _ := filepath.Glob(filepath.Join(opts.Dir, "*.tmp"))
	for _, t := range tmps {
		_ = os.Remove(t)
	}
	st := &Store{opts: opts}
	st.stats.Dir, st.stats.Fsync = opts.Dir, opts.Fsync.String()
	return st, nil
}

// segPath names a segment file.
func (st *Store) segPath(seq uint64) string {
	return filepath.Join(st.opts.Dir, fmt.Sprintf("wal-%010d.seg", seq))
}

// listSegments returns the on-disk segment sequences, ascending.
func (st *Store) listSegments() ([]uint64, error) {
	paths, err := filepath.Glob(filepath.Join(st.opts.Dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	seqs := make([]uint64, 0, len(paths))
	for _, p := range paths {
		name := filepath.Base(p)
		numeric := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
		seq, err := strconv.ParseUint(numeric, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("persist: alien file %q in data dir", name)
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// fail latches the first failure (mu held); the store stops accepting
// appends and checkpoints, and the serving layer surfaces Err to stop
// acknowledging writes it can no longer make durable.
func (st *Store) fail(err error) {
	if st.failed == nil {
		st.failed = err
	}
}

// Err returns the sticky failure, nil while the store is healthy.
func (st *Store) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.failed
}

// maxBatchItemsPerRecord bounds one unit record's item count so its
// payload (8 bytes each) stays far under wal.go's maxRecordBytes replay
// cap — a record the log writes but replay rejects would turn an
// acknowledged batch into silent data loss. Batches above the bound
// (three orders of magnitude past DefaultBatchSize; only direct library
// callers can produce them) are logged as consecutive records, which
// splits the replayed batch boundary at the 4M-item mark — outside the
// regime where any summary's batch path is boundary-sensitive in
// practice.
const maxBatchItemsPerRecord = 1 << 22

// AppendBatch implements core.Persister: it logs one unit-count batch
// exactly as passed to UpdateBatch, preserving batch boundaries.
func (st *Store) AppendBatch(items []core.Item) {
	for len(items) > maxBatchItemsPerRecord {
		st.append(recUnit, "", 0, items[:maxBatchItemsPerRecord], 0, 0, maxBatchItemsPerRecord)
		items = items[maxBatchItemsPerRecord:]
	}
	if len(items) == 0 {
		return
	}
	st.append(recUnit, "", 0, items, 0, 0, int64(len(items)))
}

// AppendUpdate implements core.Persister for the scalar weighted path
// (including turnstile deletions: count may be negative).
func (st *Store) AppendUpdate(x core.Item, count int64) {
	st.append(recWeighted, "", 0, nil, x, count, count)
}

// AppendTenantBatch logs one unit-count batch tagged with its tenant
// namespace and the tenant's counter budget k (see the recTenant record
// layout in wal.go). The multi-tenant table calls this under its ingest
// lock, so — exactly like AppendBatch — log order equals apply order.
func (st *Store) AppendTenantBatch(ns string, k int, items []core.Item) {
	if len(ns) > MaxNamespaceLen {
		st.mu.Lock()
		st.fail(fmt.Errorf("persist: tenant namespace of %d bytes exceeds the %d-byte bound", len(ns), MaxNamespaceLen))
		st.mu.Unlock()
		return
	}
	for len(items) > maxBatchItemsPerRecord {
		st.append(recTenant, ns, k, items[:maxBatchItemsPerRecord], 0, 0, maxBatchItemsPerRecord)
		items = items[maxBatchItemsPerRecord:]
	}
	if len(items) == 0 {
		return
	}
	st.append(recTenant, ns, k, items, 0, 0, int64(len(items)))
}

// append stages one record and hands it onward per policy, timing the
// whole thing — including any inline drain or always-fsync the policy
// charges to this call — when instrumented.
func (st *Store) append(kind byte, ns string, k int, items []core.Item, x core.Item, count, deltaN int64) {
	if h := st.appendH; h != nil {
		t0 := time.Now()
		st.appendRecordStaged(kind, ns, k, items, x, count, deltaN)
		h.Observe(int64(time.Since(t0)))
		return
	}
	st.appendRecordStaged(kind, ns, k, items, x, count, deltaN)
}

func (st *Store) appendRecordStaged(kind byte, ns string, k int, items []core.Item, x core.Item, count, deltaN int64) {
	st.mu.Lock()
	if st.failed != nil {
		st.mu.Unlock()
		return
	}
	if st.closed || !st.recovered {
		st.fail(fmt.Errorf("persist: append before Recover or after Close"))
		st.mu.Unlock()
		return
	}
	before := len(st.pending)
	st.pending = appendRecord(st.pending, kind, ns, k, items, x, count)
	st.walN += deltaN
	added := int64(len(st.pending) - before)
	st.stats.AppendedRecords++
	st.stats.AppendedBytes += added
	st.stats.TailBytes += added

	switch {
	case st.opts.Fsync == FsyncAlways:
		// Drain and sync inside the append: the record is durable before
		// the update is acknowledged.
		st.drainCoupled(true)
		return
	case len(st.pending) >= drainThresholdBytes:
		st.stats.InlineDrains++
		st.drainCoupled(false)
		return
	}
	st.mu.Unlock()
}

// takeSpareLocked pops a recycled staging buffer (mu held).
func (st *Store) takeSpareLocked() []byte {
	if n := len(st.spares); n > 0 {
		b := st.spares[n-1][:0]
		st.spares = st.spares[:n-1]
		return b
	}
	return nil
}

// recycleLocked returns a drained chunk to the freelist (mu held).
func (st *Store) recycleLocked(chunk []byte) {
	if chunk != nil && len(st.spares) < 4 {
		st.spares = append(st.spares, chunk[:0])
	}
}

// drainCoupled detaches the staged chunk and writes it out, entered
// with mu held and leaving both locks released. ioMu is acquired before
// mu is released, so concurrent drains hit the file in stage order.
func (st *Store) drainCoupled(sync bool) {
	chunk := st.pending
	endN := st.walN
	st.pending = st.takeSpareLocked()
	st.ioMu.Lock()
	st.mu.Unlock()
	err := st.writeChunkLocked(chunk, endN)
	if err == nil && sync {
		t0 := time.Now()
		if err = st.seg.sync(); err == nil {
			if h := st.fsyncH; h != nil {
				h.Observe(int64(time.Since(t0)))
			}
			st.fsyncs.Add(1)
			st.durableN.Store(endN)
		}
	}
	st.ioMu.Unlock()

	st.mu.Lock()
	st.recycleLocked(chunk)
	if err != nil {
		st.fail(err)
	}
	st.mu.Unlock()
}

// writeChunkLocked (ioMu held) writes one staged chunk to the active
// segment, rotating first when the segment is full. endN is the stream
// position at the chunk's end.
func (st *Store) writeChunkLocked(chunk []byte, endN int64) error {
	if len(chunk) == 0 {
		return nil
	}
	if st.seg.size+int64(len(chunk)) > st.opts.SegmentMaxBytes && st.seg.size > segHeaderSize {
		if err := st.rotateLocked(st.writtenN); err != nil {
			return err
		}
	}
	if err := st.seg.write(chunk); err != nil {
		return fmt.Errorf("persist: appending to %s: %w", st.segPath(st.seg.seq), err)
	}
	st.writtenN = endN
	return nil
}

// rotateLocked (ioMu held) seals the active segment — fsync, so every
// non-active segment is fully durable — and opens the next one, whose
// header records startN as its stream position.
func (st *Store) rotateLocked(startN int64) error {
	if st.seg != nil {
		if err := st.seg.seal(); err != nil {
			return fmt.Errorf("persist: sealing segment %d: %w", st.seg.seq, err)
		}
		st.fsyncs.Add(1)
		if st.writtenN > st.durableN.Load() {
			st.durableN.Store(st.writtenN)
		}
		st.seg.close()
	}
	seq := st.nextSeq
	seg, err := createSegment(st.segPath(seq), seq, startN)
	if err != nil {
		return err
	}
	if err := syncDir(st.opts.Dir); err != nil {
		seg.close()
		return fmt.Errorf("persist: syncing data dir: %w", err)
	}
	st.nextSeq++
	st.seg = seg
	st.activeSeq.Store(seq)
	st.segCount.Add(1)
	return nil
}

// writer is the background half of group commit: on each tick it
// drains the staged tail (records that never reached the inline-drain
// threshold) and, under the interval policy, fsyncs the segment. The
// fsync holds neither mu nor ioMu — only the segment's own syncMu — so
// neither appends nor drains ever wait on the disk flush.
func (st *Store) writer() {
	defer close(st.writeDone)
	period := st.opts.FsyncInterval
	if st.opts.Fsync != FsyncInterval {
		period = 25 * time.Millisecond // drain cadence only; no fsync promise
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-st.writeStop:
			return
		case <-t.C:
			st.mu.Lock()
			if st.failed != nil {
				st.mu.Unlock()
				continue
			}
			if len(st.pending) > 0 {
				st.drainCoupled(false)
			} else {
				st.mu.Unlock()
			}
			if st.opts.Fsync != FsyncInterval {
				continue
			}
			st.ioMu.Lock()
			seg := st.seg
			target := st.writtenN
			st.ioMu.Unlock()
			if seg == nil || target <= st.durableN.Load() {
				continue
			}
			syncStart := time.Now()
			if err := seg.sync(); err != nil {
				// Rotation may have sealed and closed this segment between
				// our capture and the sync — in which case it is already
				// durable and the error against its dead descriptor is
				// moot, not a disk failure to latch on.
				st.ioMu.Lock()
				stale := seg != st.seg
				st.ioMu.Unlock()
				if !stale {
					st.mu.Lock()
					st.fail(fmt.Errorf("persist: background fsync: %w", err))
					st.mu.Unlock()
				}
				continue
			}
			if h := st.fsyncH; h != nil {
				h.Observe(int64(time.Since(syncStart)))
			}
			st.fsyncs.Add(1)
			for {
				cur := st.durableN.Load()
				if target <= cur || st.durableN.CompareAndSwap(cur, target) {
					break
				}
			}
		}
	}
}

// Close seals the log: stops the checkpoint loop and the writer, drains
// the staged tail, fsyncs the active segment, and latches the store
// closed. Pair with a final Checkpoint for a clean shutdown that replays
// zero records on restart.
func (st *Store) Close() error {
	st.mu.Lock()
	loopStop, loopDone := st.loopStop, st.loopDone
	st.loopStop = nil
	st.mu.Unlock()
	if loopStop != nil {
		close(loopStop)
		<-loopDone
	}
	// No checkpoint may be cutting the log while it is sealed.
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()

	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	stop := st.writeStop
	st.mu.Unlock()
	if stop != nil {
		close(stop)
		<-st.writeDone
	}

	st.mu.Lock()
	chunk := st.pending
	endN := st.walN
	st.pending = nil
	st.ioMu.Lock()
	st.mu.Unlock()
	defer st.ioMu.Unlock()
	if st.seg == nil {
		return nil
	}
	err := st.writeChunkLocked(chunk, endN)
	if err == nil {
		err = st.seg.seal()
	}
	if err == nil {
		st.fsyncs.Add(1)
		st.durableN.Store(endN)
	}
	st.seg.close()
	st.seg = nil
	if err != nil {
		return fmt.Errorf("persist: closing log: %w", err)
	}
	return nil
}

// Stats is the store's observability snapshot: a WAL section and a
// checkpoint section, which freqd's stats document reports as "wal" and
// "checkpoint" and Instrument registers as scrape series (see
// obs.Registry.Stats for the tags).
type Stats struct {
	WALStats
	CheckpointStats
}

// WALStats is the write-ahead log's section of Stats.
type WALStats struct {
	Dir           string `json:"dir"`
	Fsync         string `json:"fsync"`
	WALSegments   int    `json:"segments" metric:"freq_wal_segments" help:"WAL segment count on disk."`
	ActiveSegment uint64 `json:"active_segment"`
	// WALEndN is the stream position at the end of the log (staged
	// records included), DurableN the position guaranteed on disk, and
	// Lag their difference clamped at zero: the acknowledged items a
	// crash could lose, which freqd's -max-lag sheds ingest on.
	// TailBytes is the record bytes past the last checkpoint's cut, the
	// recovered tail included: the checkpoint loop's input.
	WALEndN         int64  `json:"end_n"`
	DurableN        int64  `json:"durable_n" metric:"freq_wal_durable_n" help:"Stream position fsynced to disk."`
	Lag             int64  `json:"lag" metric:"freq_wal_lag_items" help:"Acknowledged-but-not-yet-durable items (WAL end minus durable position)."`
	TailBytes       int64  `json:"tail_bytes" metric:"freq_wal_tail_bytes" help:"Log bytes past the last checkpoint: what a restart would replay."`
	AppendedRecords int64  `json:"appended_records" metric:"freq_wal_appended_records_total" help:"Records appended to the WAL."`
	AppendedBytes   int64  `json:"appended_bytes" metric:"freq_wal_appended_bytes_total" help:"Bytes appended to the WAL."`
	InlineDrains    int64  `json:"inline_drains" metric:"freq_wal_inline_drains_total" help:"Appends that hit the staging cap and paid the write inline."`
	Fsyncs          int64  `json:"fsyncs" metric:"freq_wal_fsyncs_total" help:"WAL fsyncs issued."`
	Err             string `json:"error"`
}

// CheckpointStats is the checkpoint section of Stats, with what startup
// recovery found.
type CheckpointStats struct {
	Checkpoints   int64 `json:"count" metric:"freq_checkpoints_total" help:"Checkpoints written."`
	LastCkptN     int64 `json:"last_n" metric:"freq_checkpoint_last_n" help:"Stream position of the last checkpoint."`
	LastCkptBytes int64 `json:"last_bytes"`
	// LastCkptAge is zero when no checkpoint has been taken.
	LastCkptAge core.Millis `json:"last_age_ms" metric:"freq_checkpoint_age_seconds" help:"Seconds since the last checkpoint (0 before the first)."`
	RecoveryStats
}

// Stats reports the store's current counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	s := st.stats
	s.WALEndN = st.walN
	if !st.lastCkptTime.IsZero() {
		s.LastCkptAge = core.Millis(time.Since(st.lastCkptTime))
	}
	if st.failed != nil {
		s.Err = st.failed.Error()
	}
	st.mu.Unlock()
	s.WALSegments = int(st.segCount.Load())
	s.ActiveSegment = st.activeSeq.Load()
	s.DurableN = st.durableN.Load()
	s.Lag = max(s.WALEndN-s.DurableN, 0)
	s.Fsyncs = st.fsyncs.Load()
	return s
}

// syncDir fsyncs a directory so renames and creates in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
