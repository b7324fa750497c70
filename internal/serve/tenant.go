package serve

import (
	"errors"
	"net/http"
	"strconv"

	"streamfreq/internal/core"
	"streamfreq/internal/persist"
	"streamfreq/internal/tenant"
)

// The tenant half of the freqd HTTP API: /v1/t/{ns}/... routes served
// against the table from Options.Tenants, and the un-namespaced routes
// answered from its default namespace "". Reads reuse QueryHandlers —
// a copy of the namespace's summary pinned for the request — so a
// tenant /topk parses and answers exactly like the global one, with
// the namespace's own φ as the default threshold.

// TenantBundleContentType is the media type of a tenant-mode node's
// GET /summary: every namespace's encoded summary in one bundle, which
// freqmerge merges namespace by namespace.
const TenantBundleContentType = "application/x-freq-tenant-bundle"

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

// defaultNS names the namespace of a tenant node's un-namespaced
// routes: the default namespace "".
func defaultNS(http.ResponseWriter, *http.Request) (string, bool) { return "", true }

// namespaceRead adapts a query handler to a tenant node: ns picks the
// request's namespace (tenantNS or defaultNS), which is resolved with
// one table call into handlers pinned to a copy of its summary. One
// whose summary cannot be reloaded is a 500 naming it, never an empty
// answer. A named namespace that was never created is a 404: reads
// must not instantiate tenants, so a typo'd dashboard URL allocates no
// counters. The default namespace answers from its own stream with the
// un-namespaced routes' default φ; never created, it is the empty
// stream, as on a freqmerge that has pulled nothing.
func (s *Server) namespaceRead(ns func(http.ResponseWriter, *http.Request) (string, bool),
	read func(*QueryHandlers, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name, ok := ns(w, r)
		if !ok {
			return
		}
		q := QueryHandlers{Name: s.lookupName, Counters: s.counters}
		sum, phi, err := s.tenants.TenantSnapshot(name)
		switch {
		case err == nil:
			q.View = func() core.ReadView { return sum }
			if name != "" {
				q.DefaultPhi = phi
			}
		case name == "" && errors.Is(err, tenant.ErrNoNamespace):
			q.View = func() core.ReadView { return core.EmptyView{} }
		case errors.Is(err, tenant.ErrNoNamespace):
			HTTPError(w, http.StatusNotFound, "namespace %q does not exist (it is created on first ingest)", name)
			return
		default:
			HTTPError(w, http.StatusInternalServerError, "namespace %q: %v", name, err)
			return
		}
		read(&q, w, r)
	}
}

// handleTenantIngest is handleIngest scoped to one namespace: items
// land in (and are WAL-tagged with) the namespace, and the ack reports
// the namespace's stream position.
func (s *Server) handleTenantIngest(w http.ResponseWriter, r *http.Request) {
	ns, ok := tenantNS(w, r)
	if !ok {
		return
	}
	var n int64
	s.ingest(w, r, ns, func(batch []core.Item) (err error) {
		n, _, err = s.tenants.IngestBatch(ns, batch)
		return err
	}, func() int64 { return n })
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
