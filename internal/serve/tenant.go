package serve

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/obs"
	"streamfreq/internal/persist"
	"streamfreq/internal/stream"
)

// The tenant half of the freqd HTTP API: /v1/t/{ns}/... routes served
// against the table from Options.Tenants. Reads reuse QueryHandlers —
// a per-namespace view pinned for the request — so a tenant /topk
// parses and answers exactly like the global one, with the namespace's
// own φ as the default threshold.

// TenantBundleContentType is the media type of a tenant-mode node's
// GET /summary: every namespace's encoded summary in one bundle, which
// freqmerge merges namespace by namespace.
const TenantBundleContentType = "application/x-freq-tenant-bundle"

// tenantView adapts one namespace to core.ReadView. Reads lock the
// table per call (and reload the namespace if it was evicted); tenant
// summaries hold k counters, so the critical sections are tiny.
type tenantView struct {
	s  *Server
	ns string
}

func (v tenantView) N() int64 {
	info, _ := v.s.tenants.TenantInfo(v.ns)
	return info.N
}

func (v tenantView) Estimate(x core.Item) int64 {
	est, _, _ := v.s.tenants.TenantEstimate(v.ns, x)
	return est
}

func (v tenantView) Query(threshold int64) []core.ItemCount {
	out, _ := v.s.tenants.TenantQuery(v.ns, threshold)
	return out
}

// tenantNS extracts and validates the {ns} path segment. A namespace
// is any non-empty path segment up to persist.MaxNamespaceLen bytes;
// the default namespace "" is reachable only through the legacy
// (un-prefixed) routes, which keeps the two route families disjoint.
func tenantNS(w http.ResponseWriter, r *http.Request) (string, bool) {
	ns := r.PathValue("ns")
	if ns == "" {
		HTTPError(w, http.StatusBadRequest, "empty namespace")
		return "", false
	}
	if len(ns) > persist.MaxNamespaceLen {
		HTTPError(w, http.StatusBadRequest, "namespace exceeds %d bytes", persist.MaxNamespaceLen)
		return "", false
	}
	return ns, true
}

// known404s a read against a namespace that was never created. Reads
// must not instantiate tenants — a typo'd dashboard URL should not
// allocate counter blocks.
func (s *Server) knownTenant(w http.ResponseWriter, ns string) bool {
	if _, ok := s.tenants.TenantInfo(ns); !ok {
		HTTPError(w, http.StatusNotFound, "namespace %q does not exist (it is created on first ingest)", ns)
		return false
	}
	return true
}

// handleTenantIngest is handleIngest scoped to one namespace: same
// Content-Type dispatch, same batching, same backpressure, but items
// land in (and are WAL-tagged with) the namespace.
func (s *Server) handleTenantIngest(w http.ResponseWriter, r *http.Request) {
	ns, ok := tenantNS(w, r)
	if !ok {
		return
	}
	if s.store != nil {
		if err := s.store.Err(); err != nil {
			s.counters.Add("ingest.rejected", 1)
			HTTPError(w, http.StatusServiceUnavailable, "persistence failed, ingest disabled: %v", err)
			return
		}
		if s.maxLag > 0 {
			if lag := s.store.Lag(); lag > s.maxLag {
				s.counters.Add("ingest.shed", 1)
				w.Header().Set("Retry-After", "1")
				HTTPError(w, http.StatusTooManyRequests,
					"WAL lag %d items exceeds the %d-item bound; retry after the log drains", lag, s.maxLag)
				return
			}
		}
	}
	body := http.MaxBytesReader(w, r.Body, s.maxIn)
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
	// Token spellings intern into the one server-wide table, shared
	// across namespaces: the same token hashes to the same item
	// everywhere, so labels need no per-tenant copies.
	defer func() { s.mergeNames(src.Names()) }()

	buf := make([]core.Item, s.batch)
	var ingested, tenantN int64
	var applyTotal time.Duration
	for {
		n := src.NextBatch(buf)
		if n == 0 {
			break
		}
		t0 := time.Now()
		tn, _, err := s.tenants.IngestBatch(ns, buf[:n])
		d := time.Since(t0)
		applyTotal += d
		s.batchH.Observe(int64(n))
		s.applyH.Observe(int64(d))
		if err != nil {
			HTTPError(w, http.StatusBadRequest, "ingest into %q failed after %d items: %v", ns, ingested, err)
			return
		}
		tenantN = tn
		ingested += int64(n)
	}
	s.counters.Add("ingest.requests", 1)
	s.counters.Add("ingest.items", ingested)
	s.counters.Add("ingest.tenant_items", ingested)
	obs.AddStage(r.Context(), "apply", applyTotal)
	obs.Annotate(r.Context(), "tenant", ns)
	obs.Annotate(r.Context(), "items", ingested)
	if err := src.Err(); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			HTTPError(w, http.StatusRequestEntityTooLarge,
				"body exceeds %d-byte ingest limit (ingested %d items); split into smaller requests", tooBig.Limit, ingested)
			return
		}
		HTTPError(w, http.StatusBadRequest, "body truncated or corrupt after %d items: %v", ingested, err)
		return
	}
	w.Header().Set(HeaderEpoch, strconv.FormatUint(s.epoch, 10))
	WriteJSON(w, http.StatusOK, map[string]int64{
		"ingested": ingested,
		"n":        tenantN,
	})
}

// handleTenantTopK answers /v1/t/{ns}/topk with the namespace's φ as
// the default threshold.
func (s *Server) handleTenantTopK(w http.ResponseWriter, r *http.Request) {
	ns, ok := tenantNS(w, r)
	if !ok || !s.knownTenant(w, ns) {
		return
	}
	info, _ := s.tenants.TenantInfo(ns)
	q := QueryHandlers{
		View:       func() core.ReadView { return tenantView{s: s, ns: ns} },
		Name:       s.lookupName,
		Counters:   s.counters,
		DefaultPhi: info.Phi,
	}
	q.TopK(w, r)
}

// handleTenantEstimate answers /v1/t/{ns}/estimate.
func (s *Server) handleTenantEstimate(w http.ResponseWriter, r *http.Request) {
	ns, ok := tenantNS(w, r)
	if !ok || !s.knownTenant(w, ns) {
		return
	}
	q := QueryHandlers{
		View:     func() core.ReadView { return tenantView{s: s, ns: ns} },
		Name:     s.lookupName,
		Counters: s.counters,
	}
	q.Estimate(w, r)
}

// handleTenantStats reports one namespace's metadata.
func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	ns, ok := tenantNS(w, r)
	if !ok {
		return
	}
	info, exists := s.tenants.TenantInfo(ns)
	if !exists {
		HTTPError(w, http.StatusNotFound, "namespace %q does not exist (it is created on first ingest)", ns)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// handleTenants lists namespaces (?limit= caps the report) plus the
// table-level stats.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			HTTPError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	st := s.tenants.TableStats()
	WriteJSON(w, http.StatusOK, map[string]any{
		"stats":      st,
		"namespaces": s.tenants.Namespaces(limit),
	})
}
