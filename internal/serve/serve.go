// Package serve implements the freqd HTTP serving layer: continuous
// stream ingest and frequent-items queries over one summary, wired so
// the two workloads never fight — ingest goes through the batched
// UpdateBatch path (one lock per batch), queries are answered from the
// wrapper's epoch snapshots (never taking the ingest lock; see
// core.Snapshotter and Concurrent.ServeSnapshots).
//
// Endpoints:
//
//	POST /ingest    body = items; Content-Type selects the decoder:
//	                  application/octet-stream  bare little-endian uint64s
//	                  text/plain                whitespace-separated tokens
//	                                            (hashed via core.HashString)
//	                  application/x-sfstream    an SFSTRM01 stream file
//	GET  /topk      ?phi=0.001 (threshold φ·N — or φ·W when the target
//	                serves a sliding window) or ?threshold=123; &k= caps
//	GET  /estimate  ?item=123 | ?item=0x7b | ?token=foo
//	GET  /summary   the summary's registry Encode blob (a fresh snapshot),
//	                with X-Freq-N / X-Freq-Epoch / X-Freq-Algo headers —
//	                what a freqmerge coordinator pulls and merges
//	GET  /stats     stream length, footprint, snapshot age, traffic
//	                meters, and — when persistence is on — WAL and
//	                checkpoint state
//	POST /refresh   force a fresh serving snapshot (deterministic cutover)
//	POST /checkpoint  write a durable checkpoint now and truncate the WAL
//
// With a persist.Store attached (Options.Store), ingest is write-ahead
// logged by the target wrapper itself; the server's role is to stop
// acknowledging writes once the log has failed (503 — accepting updates
// it cannot make durable would silently change the crash contract), to
// shed load with 429 + Retry-After once the unsynced WAL lag exceeds
// Options.MaxLag (backpressure before the staging cap makes appenders
// pay the disk inline), and to expose the checkpoint control and
// observability surface.
//
// The package is the testable core of cmd/freqd: the command adds flags,
// listening, signals, recovery, and the checkpoint timer around
// NewServer/Handler.
package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/obs"
	"streamfreq/internal/persist"
	"streamfreq/internal/stream"
	"streamfreq/internal/tenant"
	"streamfreq/internal/window"
)

// Target is what the server serves: a summary that is safe for
// concurrent use and ingests batches. core.Concurrent and core.Pipelined
// (with ServeSnapshots enabled for lock-free reads) are the intended
// implementations.
type Target interface {
	core.Summary
	core.BatchUpdater
}

// snapshotServer is the optional snapshot-control surface of the
// concurrency wrappers; /stats and /refresh use it when present.
type snapshotServer interface {
	SnapshotStats() core.SnapshotStats
	RefreshSnapshot() core.ReadView
}

// viewServer is the optional pinned-epoch read surface of the
// concurrency wrappers. Query handlers pin one view per request so the
// n/threshold/report triple is internally consistent — issuing N and
// Query as separate wrapper calls could straddle a snapshot refresh.
type viewServer interface {
	ServingView() core.ReadView
}

// windowStatser is the observability surface of a windowed serving view
// (window.Windowed and its snapshots); /stats reports it when present.
type windowStatser interface {
	WindowStats() window.Stats
}

// pipelineStatser is the observability surface of the pipelined ingest
// plane (core.Pipelined); /stats reports the claimed/applied positions
// and staging footprint when present.
type pipelineStatser interface {
	PipelineStats() core.PipelineStats
}

// view returns the read state for one request: the target's current
// serving epoch when it has one, else the target itself (any Summary
// satisfies ReadView; without snapshot serving, reads lock per call and
// the request is only as consistent as interleaved writers allow, which
// is the pre-snapshot behaviour).
func (s *Server) view() core.ReadView {
	if vs, ok := s.target.(viewServer); ok {
		if v := vs.ServingView(); v != nil {
			return v
		}
	}
	return s.target
}

// liveN is the target's live stream position: what /stats n, the
// freq_stream_n gauge and the ingest ack report. It reads the live
// summary (one locked integer read, or an atomic load on the pipelined
// plane) rather than the serving snapshot, so the ingest/serving lag
// stays observable next to snapshot.as_of_n, and a recovered node
// counts the items it recovered.
func (s *Server) liveN() int64 {
	if ln, ok := s.target.(interface{ LiveN() int64 }); ok {
		return ln.LiveN()
	}
	return s.target.N()
}

// Options configures a Server.
type Options struct {
	// Target is the serving summary (required).
	Target Target
	// Algo is the algorithm label reported by /stats (defaults to
	// Target.Name()).
	Algo string
	// IngestBatch is the ingest batch length (defaults to
	// core.DefaultBatchSize).
	IngestBatch int
	// MaxIngestBytes bounds one /ingest request body (defaults to 64 MiB).
	MaxIngestBytes int64
	// MaxTokenNames caps the item→token spelling table text ingest
	// accumulates for /topk labels (defaults to 65536). The summaries are
	// O(counters) however long the stream runs; the label table must be
	// bounded too, so tokens first seen after the cap go unlabeled —
	// heavy hitters are overwhelmingly already present by then.
	MaxTokenNames int
	// Store, when set, is the durability layer the Target is already
	// wired to (Recover + PersistTo happened at startup): the server
	// exposes POST /checkpoint and the WAL/checkpoint stats, and fails
	// ingest once the store has latched a failure. The Target must
	// implement persist.Target.
	Store *persist.Store
	// MaxLag, when positive (and Store is set), is the write-ahead
	// log's backpressure bound in items: once the acknowledged-but-not-
	// yet-durable lag (WALEndN − DurableN) exceeds it, /ingest sheds
	// load with 429 + Retry-After instead of acknowledging writes the
	// disk is visibly behind on — surfacing the pressure to clients
	// *before* the staging cap makes appenders pay the disk inline.
	// 0 disables shedding (the staging cap remains the only brake).
	MaxLag int64
	// Epoch identifies this process lifetime on GET /summary; 0 (the
	// default) draws one from the clock at startup. A coordinator uses
	// epoch changes to detect node restarts, so an explicit value is
	// only for tests that need determinism.
	Epoch uint64
	// Tenants, when set, is the multi-tenant table behind Target (the
	// table itself, or wrapped): the /v1/t/{ns}/... and /v1/tenants
	// routes are served against it, and /stats grows a "tenants"
	// section. Target keeps answering the un-namespaced routes through
	// the table's default namespace.
	Tenants *tenant.Table
	// Obs is the daemon's observability plane: the registry behind
	// GET /v1/metrics, the structured logger, and the slow-query
	// threshold. Defaults to obs.Discard (working registry, silent
	// logger), so libraries and tests need not build one.
	Obs *obs.Obs
}

// Server is the freqd HTTP serving state: the target summary, the token
// spelling table for text ingest, and traffic meters.
type Server struct {
	target   Target
	algo     string
	batch    int
	maxIn    int64
	maxNames int
	store    *persist.Store
	maxLag   int64
	durable  persist.Target // target as persist.Target; nil without a store
	tenants  *tenant.Table
	obs      *obs.Obs
	counters *obs.Set // legacy dotted-key counters, mirrored as freq_*_total
	batchH   *obs.Histogram
	applyH   *obs.Histogram
	start    time.Time
	epoch    uint64
	queries  QueryHandlers

	// names maps hashed items back to token spellings for text-mode
	// streams, so /topk can label its report. Each text ingest builds a
	// private map (inside its TokenSource) and mergeNames folds it in
	// under mu.
	mu    sync.Mutex
	names map[core.Item]string
}

// NewServer returns a Server over opts.Target.
func NewServer(opts Options) *Server {
	if opts.Target == nil {
		panic("serve: Options.Target is required")
	}
	if opts.Algo == "" {
		opts.Algo = opts.Target.Name()
	}
	if opts.IngestBatch <= 0 {
		opts.IngestBatch = core.DefaultBatchSize
	}
	if opts.MaxIngestBytes <= 0 {
		opts.MaxIngestBytes = 64 << 20
	}
	if opts.MaxTokenNames <= 0 {
		opts.MaxTokenNames = 1 << 16
	}
	if opts.Epoch == 0 {
		opts.Epoch = uint64(time.Now().UnixNano())
	}
	if opts.Obs == nil {
		opts.Obs = obs.Discard("freqd")
	}
	s := &Server{
		target:   opts.Target,
		algo:     opts.Algo,
		batch:    opts.IngestBatch,
		maxIn:    opts.MaxIngestBytes,
		maxNames: opts.MaxTokenNames,
		store:    opts.Store,
		maxLag:   opts.MaxLag,
		tenants:  opts.Tenants,
		obs:      opts.Obs,
		counters: obs.NewSet(opts.Obs.Reg, "freq"),
		start:    time.Now(),
		epoch:    opts.Epoch,
		names:    make(map[core.Item]string),
	}
	s.queries = QueryHandlers{View: s.view, Name: s.lookupName, Counters: s.counters}
	if opts.Store != nil {
		d, ok := opts.Target.(persist.Target)
		if !ok {
			panic("serve: Options.Store set but Target does not implement persist.Target")
		}
		s.durable = d
	}
	s.bindMetrics()
	return s
}

// bindMetrics registers the node's collector series: instruments the
// ingest path writes, plus scrape-time funcs reading the stats surfaces
// the target actually has (snapshot, window, pipeline, WAL, tenants).
// Everything here mirrors a /stats field — /stats stays the
// human-readable view, /v1/metrics the scrapeable one.
func (s *Server) bindMetrics() {
	reg := s.obs.Reg
	s.batchH = reg.Histogram("freq_ingest_batch_items",
		"Items per applied ingest batch.", obs.SizeOpts())
	s.applyH = reg.Histogram("freq_ingest_apply_seconds",
		"UpdateBatch apply latency per ingest batch.", obs.LatencyOpts())
	algoLabel := obs.Label{Key: "algo", Value: s.algo}
	reg.GaugeFunc("freq_build_info", "Constant 1, labeled with the serving algorithm.",
		func() float64 { return 1 }, algoLabel)
	reg.GaugeFunc("freq_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("freq_stream_n", "Live stream position (items ingested).",
		func() float64 { return float64(s.liveN()) })
	reg.GaugeFunc("freq_summary_bytes", "Summary footprint in bytes.",
		func() float64 { return float64(s.target.Bytes()) })
	if ss, ok := s.target.(snapshotServer); ok {
		reg.GaugeFunc("freq_snapshot_age_seconds", "Age of the serving snapshot.",
			func() float64 { return ss.SnapshotStats().Age.Seconds() })
		reg.GaugeFunc("freq_snapshot_as_of_n", "Stream position of the serving snapshot.",
			func() float64 { return float64(ss.SnapshotStats().AsOfN) })
		reg.CounterFunc("freq_snapshot_refreshes_total", "Serving snapshot refreshes.",
			func() float64 { return float64(ss.SnapshotStats().Refreshes) })
	}
	if ps, ok := s.target.(pipelineStatser); ok {
		reg.GaugeFunc("freq_pipeline_staged_items", "Acknowledged-but-unapplied items staged in the ingest rings (drainer lag).",
			func() float64 { st := ps.PipelineStats(); return float64(st.ClaimedN - st.AppliedN) })
		reg.GaugeFunc("freq_pipeline_ring_bytes", "Staging ring footprint in bytes.",
			func() float64 { return float64(ps.PipelineStats().RingBytes) })
		reg.GaugeFunc("freq_pipeline_shards", "Pipelined ingest shard count.",
			func() float64 { return float64(ps.PipelineStats().Shards) })
		reg.GaugeFunc("freq_pipeline_ring_occupancy", "In-flight batches across staging rings (claimed-unreleased slots).",
			func() float64 { return float64(ps.PipelineStats().RingOccupancy) })
		reg.CounterFunc("freq_pipeline_claimed_items_total", "Items claimed into staging rings.",
			func() float64 { return float64(ps.PipelineStats().ClaimedN) })
		reg.CounterFunc("freq_pipeline_applied_items_total", "Items applied by drainers.",
			func() float64 { return float64(ps.PipelineStats().AppliedN) })
	}
	if ws, ok := s.view().(windowStatser); ok {
		reg.GaugeFunc("freq_window_n", "Items inside the sliding window.",
			func() float64 { return float64(ws.WindowStats().WindowN) })
		reg.GaugeFunc("freq_window_live", "Live (unexpired) items tracked by the window.",
			func() float64 { return float64(ws.WindowStats().Live) })
		reg.GaugeFunc("freq_window_slack", "Certified overestimate slack of the window.",
			func() float64 { return float64(ws.WindowStats().Slack) })
	}
	if s.tenants != nil {
		reg.GaugeFunc("freq_tenants", "Namespaces known to the table.",
			func() float64 { return float64(s.tenants.TableStats().Tenants) })
		reg.GaugeFunc("freq_tenants_resident", "Namespaces with resident (decoded) summaries.",
			func() float64 { return float64(s.tenants.TableStats().Resident) })
		reg.GaugeFunc("freq_tenants_blob_bytes", "Encoded bytes of evicted namespace summaries.",
			func() float64 { return float64(s.tenants.TableStats().BlobBytes) })
		reg.CounterFunc("freq_tenants_created_total", "Namespaces created.",
			func() float64 { return float64(s.tenants.TableStats().Created) })
		reg.CounterFunc("freq_tenants_evictions_total", "Namespace summary evictions.",
			func() float64 { return float64(s.tenants.TableStats().Evictions) })
		reg.CounterFunc("freq_tenants_reloads_total", "Namespace summary reloads after eviction.",
			func() float64 { return float64(s.tenants.TableStats().Reloads) })
		reg.GaugeFunc("freq_tenants_slab_bytes", "Slab arena footprint backing tenant counters.",
			func() float64 { return float64(s.tenants.TableStats().Slab.ChunkBytes) })
		reg.GaugeFunc("freq_tenants_slab_live_blocks", "Slab blocks handed out and not released.",
			func() float64 { return float64(s.tenants.TableStats().Slab.LiveBlocks) })
	}
	if s.store != nil {
		s.store.Instrument(reg)
		reg.GaugeFunc("freq_wal_max_lag", "Configured WAL shed bound in items (0 = unbounded).",
			func() float64 { return float64(s.maxLag) })
	}
}

// Handler returns the HTTP API mux: the /v1 surface with the
// pre-versioning paths as aliases, plus the tenant routes when the
// target is a tenant table.
func (s *Server) Handler() http.Handler { return s.API().Handler() }

// API returns the node's assembled route set. Exposed (rather than only
// the opaque Handler) so the docs test can diff the README API-reference
// table against the live mux.
func (s *Server) API() *API {
	api := NewAPI(s.obs)
	api.Route("POST", "/ingest", s.handleIngest, "/ingest")
	api.Route("GET", "/topk", s.queries.TopK, "/topk")
	api.Route("GET", "/estimate", s.queries.Estimate, "/estimate")
	// The rich query surface is /v1-only (no legacy aliases — it never
	// existed pre-versioning) and always registered: capability, not
	// configuration, decides whether a given algo answers.
	api.Route("GET", "/hhh", s.queries.HHH)
	api.Route("GET", "/range", s.queries.Range)
	api.Route("GET", "/quantile", s.queries.Quantile)
	api.Route("GET", "/summary", s.handleSummary, "/summary")
	api.Route("GET", "/stats", s.handleStats, "/stats")
	api.Route("POST", "/refresh", s.handleRefresh, "/refresh")
	api.Route("POST", "/checkpoint", s.handleCheckpoint, "/checkpoint")
	if s.tenants != nil {
		api.Route("POST", "/t/{ns}/ingest", s.handleTenantIngest)
		api.Route("GET", "/t/{ns}/topk", s.handleTenantTopK)
		api.Route("GET", "/t/{ns}/estimate", s.handleTenantEstimate)
		api.Route("GET", "/t/{ns}/stats", s.handleTenantStats)
		api.Route("GET", "/tenants", s.handleTenants)
	}
	return api
}

func (s *Server) mergeNames(names map[core.Item]string) {
	if len(names) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for it, tok := range names {
		if len(s.names) >= s.maxNames {
			break // label table is full; new tokens go unlabeled
		}
		if _, ok := s.names[it]; !ok {
			s.names[it] = tok
		}
	}
}

func (s *Server) lookupName(it core.Item) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.names[it]
}

// handleIngest streams the request body into the summary in bounded
// batches through the target's UpdateBatch path.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.store != nil {
		if err := s.store.Err(); err != nil {
			// The WAL has failed: accepting this write would acknowledge
			// data that cannot survive a restart. Serve reads, refuse
			// writes, page the operator.
			s.counters.Add("ingest.rejected", 1)
			HTTPError(w, http.StatusServiceUnavailable, "persistence failed, ingest disabled: %v", err)
			return
		}
		if s.maxLag > 0 {
			if lag := s.store.Lag(); lag > s.maxLag {
				// The disk is behind by more than the operator's bound:
				// shed the write with an explicit retry signal while the
				// log drains, instead of acknowledging into a growing
				// unsynced tail. Reads keep serving throughout.
				s.counters.Add("ingest.shed", 1)
				w.Header().Set("Retry-After", "1")
				HTTPError(w, http.StatusTooManyRequests,
					"WAL lag %d items exceeds the %d-item bound; retry after the log drains", lag, s.maxLag)
				return
			}
		}
	}
	body := http.MaxBytesReader(w, r.Body, s.maxIn)
	// Capture at most the server's label budget per request, so one
	// high-cardinality text body cannot allocate past it transiently.
	src, err := stream.OpenIngest(r.Header.Get("Content-Type"), body, s.maxNames)
	if err != nil {
		s.counters.Add("ingest.rejected", 1)
		if errors.Is(err, stream.ErrUnsupportedMedia) {
			HTTPError(w, http.StatusUnsupportedMediaType, "%v", err)
			return
		}
		HTTPError(w, http.StatusBadRequest, "bad stream file: %v", err)
		return
	}
	defer func() { s.mergeNames(src.Names()) }()

	buf := make([]core.Item, s.batch)
	var ingested int64
	var applyTotal time.Duration
	for {
		n := src.NextBatch(buf)
		if n == 0 {
			break
		}
		t0 := time.Now()
		s.target.UpdateBatch(buf[:n])
		d := time.Since(t0)
		applyTotal += d
		s.batchH.Observe(int64(n))
		s.applyH.Observe(int64(d))
		ingested += int64(n)
	}
	s.counters.Add("ingest.requests", 1)
	s.counters.Add("ingest.items", ingested)
	obs.AddStage(r.Context(), "apply", applyTotal)
	obs.Annotate(r.Context(), "items", ingested)
	if err := src.Err(); err != nil {
		// Items decoded before the failure are already ingested (the
		// stream model has no transactions); report both facts. A body
		// over the size cap is the client's to fix by chunking — signal
		// it as 413, distinct from genuinely torn data.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			HTTPError(w, http.StatusRequestEntityTooLarge,
				"body exceeds %d-byte ingest limit (ingested %d items); split into smaller requests", tooBig.Limit, ingested)
			return
		}
		HTTPError(w, http.StatusBadRequest, "body truncated or corrupt after %d items: %v", ingested, err)
		return
	}
	// Stamp the process epoch on every ack, so a write tier notices a
	// restart on the very next batch it forwards — without waiting for a
	// health probe or a /summary pull to observe the new epoch.
	w.Header().Set(HeaderEpoch, strconv.FormatUint(s.epoch, 10))
	// Ack with the live stream position, recovered items included — the
	// same n /stats and freq_stream_n report.
	WriteJSON(w, http.StatusOK, map[string]int64{
		"ingested": ingested,
		"n":        s.liveN(),
	})
}

// handleSummary ships the summary's state: a fresh snapshot (taken under
// the ingest lock, one clone) encoded through the registry wire format,
// with the stream position and process epoch in headers. This is the
// cluster fan-in primitive — a freqmerge coordinator pulls it from every
// node and merges the blobs. For a Pipelined target, Snapshot() already
// merges the per-shard clones into one summary of the node's whole
// stream, so the wire always carries exactly one blob per node. A
// tenant-mode node ships every namespace instead, as one bundle
// (TenantBundleContentType) the coordinator merges per namespace.
func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	if s.tenants != nil {
		blob, err := s.tenants.EncodeBundle()
		if err != nil {
			HTTPError(w, http.StatusInternalServerError, "encoding tenant bundle: %v", err)
			return
		}
		s.counters.Add("summary.pulls", 1)
		h := w.Header()
		h.Set("Content-Type", TenantBundleContentType)
		h.Set(HeaderAlgo, s.algo)
		h.Set(HeaderN, strconv.FormatInt(s.tenants.N(), 10))
		h.Set(HeaderEpoch, strconv.FormatUint(s.epoch, 10))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(blob)
		return
	}
	sn, ok := s.target.(core.Snapshotter)
	if !ok {
		HTTPError(w, http.StatusNotImplemented, "target %s cannot snapshot", s.target.Name())
		return
	}
	s.counters.Add("summary.pulls", 1)
	WriteSummary(w, s.algo, s.epoch, sn.Snapshot())
}

// handleStats reports serving state: the summary's vitals, snapshot
// freshness, and traffic meters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"algo":      s.algo,
		"summary":   s.target.Name(),
		"n":         s.liveN(),
		"epoch":     s.epoch,
		"bytes":     s.target.Bytes(),
		"uptime_ms": time.Since(s.start).Milliseconds(),
		"counters":  s.counters.Snapshot(),
	}
	if ss, ok := s.target.(snapshotServer); ok {
		st := ss.SnapshotStats()
		resp["snapshot"] = map[string]any{
			"serving":      st.Serving,
			"as_of_n":      st.AsOfN,
			"age_ms":       st.Age.Milliseconds(),
			"refreshes":    st.Refreshes,
			"max_stale_ms": st.MaxStale.Milliseconds(),
		}
	}
	if ws, ok := s.view().(windowStatser); ok {
		// The serving view is a windowed summary: surface the window
		// shape and its error accounting next to the whole-stream n, so
		// operators can read the φ·W operating point (window_n), the
		// certified overestimate bound (slack), and how much of the
		// boundary block is expired-but-still-counted straight off the
		// endpoint.
		wst := ws.WindowStats()
		resp["window"] = map[string]any{
			"size":             wst.Size,
			"blocks":           wst.Blocks,
			"block_len":        wst.BlockLen,
			"k":                wst.K,
			"window_live":      wst.Live,
			"window_n":         wst.WindowN,
			"coverage":         wst.Coverage,
			"slack":            wst.Slack,
			"boundary_expired": wst.BoundaryExpired,
		}
	}
	if s.tenants != nil {
		resp["tenants"] = s.tenants.TableStats()
	}
	if ps, ok := s.target.(pipelineStatser); ok {
		// The target is the pipelined ingest plane: surface the
		// acknowledged-vs-applied gap (the staged in-flight backlog)
		// and the staging rings' footprint.
		pst := ps.PipelineStats()
		resp["pipeline"] = map[string]any{
			"shards":         pst.Shards,
			"ring_capacity":  pst.RingCapacity,
			"claimed_n":      pst.ClaimedN,
			"applied_n":      pst.AppliedN,
			"staged":         pst.ClaimedN - pst.AppliedN,
			"ring_bytes":     pst.RingBytes,
			"ring_occupancy": pst.RingOccupancy,
		}
	}
	if s.store != nil {
		ps := s.store.Stats()
		resp["wal"] = map[string]any{
			"dir":              ps.Dir,
			"fsync":            ps.Fsync,
			"segments":         ps.WALSegments,
			"active_segment":   ps.ActiveSegment,
			"end_n":            ps.WALEndN,
			"durable_n":        ps.DurableN,
			"lag":              ps.WALEndN - ps.DurableN,
			"max_lag":          s.maxLag,
			"appended_records": ps.AppendedRecords,
			"appended_bytes":   ps.AppendedBytes,
			"inline_drains":    ps.InlineDrains,
			"fsyncs":           ps.Fsyncs,
			"error":            ps.Err,
		}
		resp["checkpoint"] = map[string]any{
			"count":        ps.Checkpoints,
			"last_n":       ps.LastCkptN,
			"last_bytes":   ps.LastCkptBytes,
			"last_age_ms":  ps.LastCkptAge.Milliseconds(),
			"recovered_n":  ps.Recovery.RecoveredN,
			"replayed":     ps.Recovery.ReplayedRecords,
			"truncated_b":  ps.Recovery.TruncatedBytes,
			"ckpt_shards":  ps.Recovery.CheckpointShards,
			"checkpoint_n": ps.Recovery.CheckpointN,
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleCheckpoint writes a durable checkpoint on demand — operators
// call it before planned maintenance so the restart replays nothing,
// and tests use it as a deterministic durability cutover.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		HTTPError(w, http.StatusNotImplemented, "persistence is not enabled (-data-dir)")
		return
	}
	ps, err := s.store.Checkpoint(s.durable)
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, "checkpoint failed: %v", err)
		return
	}
	s.counters.Add("checkpoint.forced", 1)
	WriteJSON(w, http.StatusOK, map[string]int64{
		"n":     ps.LastCkptN,
		"bytes": ps.LastCkptBytes,
		"count": ps.Checkpoints,
	})
}

// handleRefresh forces a fresh serving snapshot, so operators (and
// tests) can cut over deterministically instead of waiting out the
// staleness bound.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.target.(snapshotServer)
	if !ok {
		HTTPError(w, http.StatusNotImplemented, "target has no snapshot serving")
		return
	}
	view := ss.RefreshSnapshot()
	if view == nil {
		HTTPError(w, http.StatusNotImplemented, "snapshot serving is not enabled on the target")
		return
	}
	s.counters.Add("snapshot.forced", 1)
	WriteJSON(w, http.StatusOK, map[string]int64{"n": view.N()})
}

// ListenAndServe serves the API on addr until stop is closed (or a
// listener error), then drains in-flight requests: the graceful-shutdown
// half of cmd/freqd, factored here so tests can drive it.
func (s *Server) ListenAndServe(addr string, stop <-chan struct{}) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-stop:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}
