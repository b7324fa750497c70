// Command freqd serves frequent-items queries over a live stream: it
// ingests items continuously over HTTP and answers top-k / point-
// estimate queries from epoch snapshots, so heavy read traffic never
// blocks the ingest hot path. With -data-dir set it is durable: every
// ingest batch is write-ahead logged and the summary is checkpointed
// by log volume and by clock, so a crash (kill -9 included) restarts at
// the last durable point instead of an empty summary, replaying the log
// tail past the last checkpoint. A checkpoint is triggered once that
// tail reaches max(4 MiB, 8 × the summary's /stats bytes), but the
// trigger is polled every 100 ms and ingest continues while a
// checkpoint runs, so the tail a restart replays can pass the trigger
// by the ingest rate × (100 ms + the checkpoint's duration).
//
// Usage:
//
//	freqd -algo SSH -phi 0.001 -addr :8080
//	freqd -algo CM -phi 0.01 -shards 8 -staleness 250ms   # sharded staged ingest plane
//	freqd -algo SSH -phi 0.001 -shards 8 -pprof :6060      # with mutex/block profiling
//	freqd -algo SSH -phi 0.001 -data-dir /var/lib/freqd -fsync interval -checkpoint-every 1m
//	freqd -window 1000000 -window-blocks 10 -phi 0.001    # heavy hitters over the last 1M items
//	freqd -tenants -phi 0.01 -tenant-phi eu=0.001 -tenant-max-resident 4096   # namespaced summaries under /v1/t/{ns}/...
//	freqd -algo cmh -phi 0.001                  # dyadic hierarchy: /v1/hhh, /v1/range, /v1/quantile
//	freqd -algo gk -phi 0.01                    # value quantiles: /v1/quantile, /v1/range
//	freqd -algo cmh -horizons 1m,1h,24h         # wall-clock resolutions: /v1/topk?horizon=1h (memory-only)
//
// With -window W the daemon serves *sliding-window* heavy hitters: /topk
// and /estimate answer over (roughly) the last W items instead of the
// whole history, ?phi= thresholds against W, and /stats gains a window
// section (live span, slack, boundary-block coverage). Durability works
// unchanged — checkpoints hold only the live blocks, WAL replay
// reconstructs block boundaries — so a recovered windowed daemon is
// bit-identical to its durable prefix, like the whole-stream modes.
//
// Ingest (any of):
//
//	curl -X POST --data-binary @items.raw -H 'Content-Type: application/octet-stream' localhost:8080/ingest
//	cat access.log | awk '{print $7}' | curl -X POST --data-binary @- -H 'Content-Type: text/plain' localhost:8080/ingest
//	curl -X POST --data-binary @zipf11.stream -H 'Content-Type: application/x-sfstream' localhost:8080/ingest
//
// Query:
//
//	curl 'localhost:8080/topk?phi=0.001&k=20'
//	curl 'localhost:8080/estimate?token=/index.html'
//	curl 'localhost:8080/stats'
//
// Durability control:
//
//	curl -X POST localhost:8080/checkpoint
//
// Queries are served from a snapshot refreshed at most once per
// -staleness window; POST /refresh forces a fresh one. SIGINT/SIGTERM
// shut the server down gracefully: with persistence on, shutdown
// writes a final checkpoint and seals the log, so the next start
// replays zero WAL records.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only on -pprof
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"streamfreq"
	"streamfreq/internal/core"
	"streamfreq/internal/obs"
	"streamfreq/internal/persist"
	"streamfreq/internal/serve"
	"streamfreq/internal/tenant"
	"streamfreq/internal/window"
)

// phiOverrides collects repeated -tenant-phi ns=phi flags into the
// per-namespace threshold map.
type phiOverrides map[string]float64

func (p phiOverrides) String() string {
	parts := make([]string, 0, len(p))
	for ns, phi := range p {
		parts = append(parts, fmt.Sprintf("%s=%g", ns, phi))
	}
	return strings.Join(parts, ",")
}

func (p phiOverrides) Set(v string) error {
	ns, val, ok := strings.Cut(v, "=")
	if !ok || ns == "" {
		return fmt.Errorf("want ns=phi, got %q", v)
	}
	var phi float64
	if _, err := fmt.Sscanf(val, "%g", &phi); err != nil {
		return fmt.Errorf("bad phi in %q: %v", v, err)
	}
	p[ns] = phi
	return nil
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		algo      = flag.String("algo", "SSH", "algorithm code (freqbench -list shows the roster)")
		phi       = flag.Float64("phi", 0.001, "provision the summary for thresholds down to phi")
		seed      = flag.Uint64("seed", 1, "hash seed for sketches")
		shards    = flag.Int("shards", 1, "ingest shards (power of two; 1 = single mutex, N > 1 = staged plane: per-shard rings applied by drainer goroutines)")
		pipeline  = flag.Bool("pipeline", false, "deprecated and ignored: -shards picks the ingest plane")
		staleness = flag.Duration("staleness", 100*time.Millisecond, "query snapshot staleness bound (0 = always fresh)")
		batch     = flag.Int("batch", 0, "ingest batch length (0 = default)")
		epoch     = flag.Uint64("epoch", 0, "process epoch stamped on summaries and ingest acks (0 = draw from the clock); explicit values are for deterministic failover drills")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof (with mutex and block profiling) on this address (empty = off)")

		windowLen = flag.Int("window", 0, "serve heavy hitters over the last W items instead of the whole stream (0 = whole-stream)")
		windowB   = flag.Int("window-blocks", 8, "block count of the sliding window (W must be a multiple of it)")

		horizons = flag.String("horizons", "", "comma-separated wall-clock horizons (e.g. 1m,1h,24h) served via ?horizon= on queries; memory-only (empty = off)")
		horizonB = flag.Int("horizon-blocks", 8, "blocks B per horizon: each horizon keeps B+1 block summaries and a view covers between the horizon and 1+1/B of it (finer alignment, more merge work per query)")

		dataDir    = flag.String("data-dir", "", "persistence directory (empty = in-memory only)")
		fsyncMode  = flag.String("fsync", "interval", "WAL durability: always | interval | never")
		fsyncEvery = flag.Duration("fsync-interval", 100*time.Millisecond, "group-commit window for -fsync interval")
		ckptEvery  = flag.Duration("checkpoint-every", time.Minute, "time trigger: checkpoint once this long has passed with log past the last checkpoint; beside it, a volume trigger checkpoints when that log reaches max(4 MiB, 8 × the summary's bytes) (0 = neither: only POST /checkpoint and shutdown)")
		maxLag     = flag.Int64("max-lag", 0, "shed ingest (429) once the unsynced WAL lag exceeds this many items (0 = no shedding)")

		logFormat = flag.String("log-format", "text", "structured log format: text | json")
		slowQuery = flag.Duration("slow-query", 0, "log requests slower than this at warn level with per-stage timings (0 = off)")

		tenants   = flag.Bool("tenants", false, "multi-tenant mode: one Space-Saving summary per namespace under /v1/t/{ns}/... (SSH only)")
		tenantMax = flag.Int("tenant-max-resident", 4096, "resident-tenant bound; idle namespaces beyond it are evicted to compact blobs (0 = unbounded)")
		tenantPhi = phiOverrides{}
	)
	flag.Var(tenantPhi, "tenant-phi", "per-namespace threshold override as ns=phi (repeatable); others use -phi")
	flag.Parse()

	o, err := obs.New(obs.Options{
		Service:   "freqd",
		LogFormat: *logFormat,
		LogWriter: os.Stderr,
		SlowQuery: *slowQuery,
	})
	if err != nil {
		fatal(err)
	}
	if *pipeline {
		o.Log.Warn("-pipeline is deprecated and ignored: -shards picks the ingest plane")
	}

	var table *tenant.Table
	if *tenants {
		var err error
		table, err = buildTenantTable(*algo, *phi, *shards, *windowLen, *tenantMax, tenantPhi)
		if err != nil {
			fatal(err)
		}
	}
	spans, err := parseHorizons(*horizons)
	if err != nil {
		fatal(err)
	}
	target, store, label, err := buildTarget(o.Log, *algo, *phi, *seed, *shards, *staleness,
		*windowLen, *windowB, spans, *horizonB, *dataDir, *fsyncMode, *fsyncEvery, table)
	if err != nil {
		fatal(err)
	}

	if *pprofAddr != "" {
		// Profile the things a lock-free ingest plane is built to
		// eliminate: mutex profiling shows who still holds summary
		// locks, block profiling shows where writers wait on the rings.
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(100_000) // sample blocking events ≥100µs
		go func() {
			o.Log.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				o.Log.Error("pprof server failed", "error", err)
			}
		}()
	}
	srv := serve.NewServer(serve.Options{Target: target, Algo: label, IngestBatch: *batch, Store: store, MaxLag: *maxLag, Epoch: *epoch, Tenants: table, Obs: o})

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		o.Log.Info("draining on signal", "signal", s.String())
		close(stop)
	}()

	if store != nil {
		if err := store.AutoCheckpoint(target.(persist.Target), *ckptEvery, o.Log); err != nil {
			fatal(err)
		}
	}

	attrs := []any{"algo", label, "phi", *phi, "shards", *shards, "staleness", *staleness, "addr", *addr}
	if table != nil {
		attrs = append(attrs, "tenants", true, "tenant_max_resident", *tenantMax)
	}
	if *windowLen > 0 {
		attrs = append(attrs, "window", *windowLen, "window_blocks", *windowB)
	}
	if len(spans) > 0 {
		attrs = append(attrs, "horizons", *horizons, "horizon_blocks", *horizonB)
	}
	if store != nil {
		attrs = append(attrs, "data_dir", *dataDir, "fsync", *fsyncMode)
	}
	o.Log.Info("serving", attrs...)
	err = srv.ListenAndServe(*addr, stop)
	if store != nil {
		// Flush a final checkpoint and seal the log: a clean shutdown
		// leaves nothing to replay. For the pipelined plane the
		// checkpoint barrier drains the staging rings first, so the
		// checkpoint covers every acknowledged batch.
		if _, cerr := store.Checkpoint(target.(persist.Target)); cerr != nil {
			o.Log.Error("final checkpoint failed", "error", cerr)
		}
		if cerr := store.Close(); cerr != nil {
			o.Log.Error("closing log failed", "error", cerr)
		}
	}
	if p, ok := target.(*core.Pipelined); ok {
		p.Close()
	}
	if err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

// buildTenantTable validates the multi-tenant flag combination and
// constructs the namespaced table. Tenancy is a serving arrangement of
// many small Space-Saving summaries in one table, so the mode excludes
// the single-summary arrangements: windows, sharding, and non-SSH
// algorithms.
func buildTenantTable(algo string, phi float64, shards, windowLen, maxResident int,
	overrides map[string]float64) (*tenant.Table, error) {
	if !strings.EqualFold(algo, "SSH") {
		return nil, fmt.Errorf("-tenants serves per-namespace Space-Saving; drop -algo %s (or set SSH)", algo)
	}
	if windowLen > 0 {
		return nil, fmt.Errorf("-tenants and -window are incompatible; pick one serving arrangement")
	}
	if shards != 1 {
		return nil, fmt.Errorf("-tenants is namespace-keyed, not hash-sharded; drop -shards %d", shards)
	}
	return tenant.NewTable(tenant.Options{
		DefaultPhi:  phi,
		MaxResident: maxResident,
		Phi:         overrides,
	})
}

// parseHorizons splits the -horizons flag into wall-clock spans.
func parseHorizons(s string) ([]time.Duration, error) {
	if s == "" {
		return nil, nil
	}
	var out []time.Duration
	for _, part := range strings.Split(s, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-horizons: %v", err)
		}
		out = append(out, d)
	}
	return out, nil
}

// newSummary constructs the serving summary for an -algo code: the
// registry roster, plus GK — a wire citizen without a roster entry
// (quantile summaries answer /v1/quantile and /v1/range, not /topk
// recall guarantees, so the frequency-semantics roster excludes it; φ
// provisions ε the way NewQuantileForPhi defines).
func newSummary(algo string, phi float64, seed uint64) (core.Summary, error) {
	if strings.EqualFold(algo, "GK") {
		return streamfreq.NewQuantileForPhi(phi)
	}
	return streamfreq.New(algo, phi, seed)
}

func mustSummary(algo string, phi float64, seed uint64) core.Summary {
	s, err := newSummary(algo, phi, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// buildTarget wraps a registry summary for serving: -shards picks the
// plane, plain Concurrent for one shard and the staged Pipelined plane
// across N > 1 power-of-two shards; with -window set, the summary is
// the sliding-window Space-Saving ("SSW") and queries answer over the
// last W items. With a data directory it also opens the durability
// layer in the startup order recovery requires — construct, recover,
// wire the WAL, then enable snapshot serving. The returned label is the
// effective algorithm name — the -algo code, or "SSW" in windowed mode —
// and is the single source for both the serving layer's Algo and the
// checkpoint's mode-exclusive algo stamp.
func buildTarget(log *slog.Logger, algo string, phi float64, seed uint64, shards int, staleness time.Duration,
	windowLen, windowBlocks int, horizons []time.Duration, horizonBlocks int,
	dataDir, fsyncMode string, fsyncEvery time.Duration, table *tenant.Table) (serve.Target, *persist.Store, string, error) {
	probe, err := newSummary(algo, phi, seed) // validate algo/phi before wrapping
	if err != nil {
		return nil, nil, "", err
	}
	if shards <= 0 || shards&(shards-1) != 0 {
		return nil, nil, "", fmt.Errorf("-shards must be a positive power of two, got %d", shards)
	}

	// The summary's Name is the canonical algorithm code (the registry
	// convention), so -algo ssh and -algo SSH label checkpoints the same.
	label := probe.Name()
	var durable persist.Target
	switch {
	case len(horizons) > 0:
		// Wall-clock multi-resolution serving: a block ring per horizon.
		// The rings have no wire format, so the mode is memory-only and
		// excludes the single-summary serving arrangements.
		if dataDir != "" {
			return nil, nil, "", fmt.Errorf("-horizons is memory-only (bucket rings have no wire format); drop -data-dir")
		}
		if windowLen > 0 {
			return nil, nil, "", fmt.Errorf("-horizons and -window are different recency models; pick one")
		}
		if table != nil {
			return nil, nil, "", fmt.Errorf("-horizons and -tenants are incompatible; pick one serving arrangement")
		}
		if shards != 1 {
			return nil, nil, "", fmt.Errorf("-horizons is single-shard; drop -shards %d", shards)
		}
		m, err := window.NewMultiRes(window.MultiResConfig{
			Horizons: horizons,
			Blocks:   horizonBlocks,
			Factory:  func() core.Summary { return mustSummary(algo, phi, seed) },
		})
		if err != nil {
			return nil, nil, "", err
		}
		label = m.Name() // "MR-" + block algo
		durable = core.NewConcurrent(m)
	case table != nil:
		// Multi-tenant: the table is its own concurrency wrapper (one
		// lock over tiny critical sections) and its own durable target
		// (tenant-tagged WAL records, manifest checkpoints).
		durable = table
	case windowLen > 0:
		// Windowed serving: block-decomposed Space-Saving over the last
		// W items. The window is one summary with internal blocks, so it
		// is served single-shard (sharding would give each shard its own
		// last-W-of-substream, a different question); -algo must stay on
		// the Space-Saving default the blocks are built from.
		if !strings.EqualFold(algo, "SSH") {
			return nil, nil, "", fmt.Errorf("-window serves block-decomposed Space-Saving; drop -algo %s (or set SSH)", algo)
		}
		if shards != 1 {
			return nil, nil, "", fmt.Errorf("-window is single-shard; drop -shards %d", shards)
		}
		win, err := streamfreq.NewWindowedForPhi(phi, windowLen, windowBlocks)
		if err != nil {
			return nil, nil, "", err
		}
		label = "SSW" // a windowed data dir never restores into a flat summary
		durable = core.NewConcurrent(win)
	case shards > 1:
		durable = core.NewPipelined(shards, func() core.Summary {
			return mustSummary(algo, phi, seed)
		})
	default:
		durable = core.NewConcurrent(mustSummary(algo, phi, seed))
	}

	var store *persist.Store
	if dataDir != "" {
		policy, err := persist.ParseFsyncPolicy(fsyncMode)
		if err != nil {
			return nil, nil, "", err
		}
		store, err = persist.Open(persist.Options{
			Dir:           dataDir,
			Algo:          label,
			Fsync:         policy,
			FsyncInterval: fsyncEvery,
			Decode:        streamfreq.Decode,
		})
		if err != nil {
			return nil, nil, "", err
		}
		stats, err := store.Recover(durable)
		if err != nil {
			return nil, nil, "", fmt.Errorf("recovering %s: %w", dataDir, err)
		}
		log.Info("recovered",
			"n", stats.RecoveredN,
			"checkpoint_n", stats.CheckpointN,
			"wal_records", stats.ReplayedRecords,
			"wal_bytes", stats.ReplayedBytes,
			"truncated_bytes", stats.TruncatedBytes,
			"elapsed", stats.Elapsed,
			"replay_items_per_s", int64(float64(stats.ReplayedItems)/stats.Elapsed.Seconds()))
		durable.PersistTo(store)
	}

	switch t := durable.(type) {
	case *tenant.Table:
		// Served directly: tenant reads pin per-namespace views, so the
		// -staleness snapshot machinery does not apply.
		return t, store, label, nil
	case *core.Pipelined:
		return t.ServeSnapshots(staleness), store, label, nil
	default:
		return durable.(*core.Concurrent).ServeSnapshots(staleness), store, label, nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "freqd:", err)
	os.Exit(1)
}
