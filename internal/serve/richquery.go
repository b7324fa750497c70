package serve

import (
	"net/http"
	"net/url"
	"strconv"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/sketches"
)

// The rich query surface: hierarchical heavy hitters, range counts, and
// value quantiles, served when the algorithm behind the pinned view can
// answer them. These are capability-dispatched — the routes are always
// registered (the API surface does not depend on flags), and a request
// against a summary that lacks the capability gets the 404 envelope
// naming which -algo choices do support it. The same handlers run on a
// node (freqd) and a coordinator (freqmerge), because the coordinator's
// merged view is the same concrete summary type the nodes ship.

// hierarchyView answers prefix-granularity queries: the dyadic sketch
// hierarchies (*sketches.Hierarchical — CMH and CSH) implement it.
type hierarchyView interface {
	HeavyPrefixes(threshold int64) []sketches.PrefixCount
	Bits() uint
	UniverseBits() uint
}

// rangeView answers "how many arrivals landed in [lo, hi]": the sketch
// hierarchies (dyadic cover) and the GK quantile summary (rank
// difference) implement it with this exact signature.
type rangeView interface {
	RangeEstimate(lo, hi uint64) (int64, error)
}

// quantileView answers "what value sits at rank q·N": sketch hierarchies
// (binary search over prefix sums) and GK (the native query) implement it.
type quantileView interface {
	QuantileQuery(q float64) (uint64, error)
}

// horizonedView is the wall-clock multi-resolution surface
// (window.MultiRes): per-horizon merged views with horizon-scoped
// thresholds.
type horizonedView interface {
	HorizonView(d time.Duration) (core.ReadView, error)
	Horizons() []time.Duration
}

// summaryExposer lets composed read views (horizon views, and any future
// wrapper that carries a concrete summary inside) surface that summary
// for capability dispatch, so /v1/hhh?horizon=1m can reach the
// Hierarchical merged from a MultiRes block ring.
type summaryExposer interface {
	Summary() core.Summary
}

// capabilitySource unwraps a view to the value capability interfaces
// should be asserted against.
func capabilitySource(view core.ReadView) any {
	if se, ok := view.(summaryExposer); ok {
		return se.Summary()
	}
	return view
}

// resolveHorizon narrows view to the wall-clock horizon named by raw
// (a Go duration: 1m, 1h, 24h). On failure it writes the error envelope
// and returns false: a malformed or unconfigured horizon is the
// client's 400, a summary with no horizons at all is a 404 (the
// resource — wall-clock resolution — does not exist on this server).
func resolveHorizon(w http.ResponseWriter, view core.ReadView, raw string) (core.ReadView, bool) {
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		HTTPError(w, http.StatusBadRequest, "horizon must be a positive Go duration (1m, 1h, 24h)")
		return nil, false
	}
	hv, ok := view.(horizonedView)
	if !ok {
		HTTPError(w, http.StatusNotFound,
			"the serving summary has no wall-clock horizons; start freqd with -horizons")
		return nil, false
	}
	v, err := hv.HorizonView(d)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return v, true
}

// parseThreshold resolves the ?threshold= / ?phi= pair every
// threshold-style query accepts (φ scaled against n, the same
// denominator /topk uses). On bad input it writes the 400 envelope and
// reports false.
func (q *QueryHandlers) parseThreshold(w http.ResponseWriter, query url.Values, n int64) (int64, bool) {
	if ts := query.Get("threshold"); ts != "" {
		t, err := strconv.ParseInt(ts, 10, 64)
		if err != nil || t < 1 {
			HTTPError(w, http.StatusBadRequest, "threshold must be a positive integer")
			return 0, false
		}
		return t, true
	}
	phiStr := query.Get("phi")
	if phiStr == "" {
		phiStr = strconv.FormatFloat(q.defaultPhi(), 'g', -1, 64)
	}
	phi, err := strconv.ParseFloat(phiStr, 64)
	if err != nil || phi <= 0 || phi >= 1 {
		HTTPError(w, http.StatusBadRequest, "phi must be in (0,1)")
		return 0, false
	}
	threshold := int64(phi * float64(n))
	if threshold < 1 {
		threshold = 1
	}
	return threshold, true
}

// hhhRow is one /hhh report row: a prefix at a hierarchy level with its
// estimated count, the residual after discounting already-reported
// finer-level heavy prefixes, and whether that residual still clears the
// threshold (the hierarchical-heavy-hitter flag).
type hhhRow struct {
	Prefix   uint64 `json:"prefix"`
	Level    int    `json:"level"`
	Count    int64  `json:"count"`
	Residual int64  `json:"residual"`
	HHH      bool   `json:"hhh"`
}

// HHH answers a hierarchical heavy-hitter query (?phi= or ?threshold=,
// optional &horizon=) against one pinned view. Requires a hierarchy
// algorithm (-algo cmh or csh).
func (q *QueryHandlers) HHH(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	view := q.View()
	if raw := query.Get("horizon"); raw != "" {
		v, ok := resolveHorizon(w, view, raw)
		if !ok {
			return
		}
		view = v
	}
	h, ok := capabilitySource(view).(hierarchyView)
	if !ok {
		HTTPError(w, http.StatusNotFound,
			"the serving algorithm does not answer hierarchical queries; run freqd with -algo cmh or -algo csh")
		return
	}
	n := thresholdN(view)
	threshold, ok := q.parseThreshold(w, query, n)
	if !ok {
		return
	}
	report := h.HeavyPrefixes(threshold)
	rows := make([]hhhRow, len(report))
	for i, pc := range report {
		rows[i] = hhhRow{
			Prefix:   uint64(pc.Prefix),
			Level:    pc.Level,
			Count:    pc.Count,
			Residual: pc.Residual,
			HHH:      pc.HHH,
		}
	}
	q.count("queries.hhh")
	WriteJSON(w, http.StatusOK, map[string]any{
		"n":             n,
		"threshold":     threshold,
		"bits":          h.Bits(),
		"universe_bits": h.UniverseBits(),
		"prefixes":      rows,
	})
}

// Range answers a range-count query (?lo=&hi=, inclusive, decimal or
// 0x-hex, optional &horizon=) against one pinned view. Requires a
// range-capable algorithm (-algo cmh, csh, or gk).
func (q *QueryHandlers) Range(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	loStr, hiStr := query.Get("lo"), query.Get("hi")
	if loStr == "" || hiStr == "" {
		HTTPError(w, http.StatusBadRequest, "lo and hi parameters required")
		return
	}
	lo, err := parseItem(loStr)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "lo must be a decimal or 0x-hex uint64")
		return
	}
	hi, err := parseItem(hiStr)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "hi must be a decimal or 0x-hex uint64")
		return
	}
	if lo > hi {
		HTTPError(w, http.StatusBadRequest, "lo must not exceed hi")
		return
	}
	view := q.View()
	if raw := query.Get("horizon"); raw != "" {
		v, ok := resolveHorizon(w, view, raw)
		if !ok {
			return
		}
		view = v
	}
	rv, ok := capabilitySource(view).(rangeView)
	if !ok {
		HTTPError(w, http.StatusNotFound,
			"the serving algorithm does not answer range queries; run freqd with -algo cmh, csh, or gk")
		return
	}
	est, err := rv.RangeEstimate(uint64(lo), uint64(hi))
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q.count("queries.range")
	WriteJSON(w, http.StatusOK, map[string]any{
		"lo": uint64(lo), "hi": uint64(hi), "estimate": est, "n": thresholdN(view),
	})
}

// Quantile answers a value-quantile query (?q= in [0,1], optional
// &horizon=) against one pinned view. Requires a quantile-capable
// algorithm (-algo gk natively, cmh/csh via dyadic prefix sums).
func (q *QueryHandlers) Quantile(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	qStr := query.Get("q")
	if qStr == "" {
		HTTPError(w, http.StatusBadRequest, "q parameter required")
		return
	}
	quant, err := strconv.ParseFloat(qStr, 64)
	if err != nil || quant < 0 || quant > 1 {
		HTTPError(w, http.StatusBadRequest, "q must be in [0,1]")
		return
	}
	view := q.View()
	if raw := query.Get("horizon"); raw != "" {
		v, ok := resolveHorizon(w, view, raw)
		if !ok {
			return
		}
		view = v
	}
	qv, ok := capabilitySource(view).(quantileView)
	if !ok {
		HTTPError(w, http.StatusNotFound,
			"the serving algorithm does not answer quantile queries; run freqd with -algo gk, cmh, or csh")
		return
	}
	value, err := qv.QuantileQuery(quant)
	if err != nil {
		// The only runtime failure is an empty summary: there is no rank
		// to report yet, which is a missing resource, not a bad request.
		HTTPError(w, http.StatusNotFound, "%v", err)
		return
	}
	q.count("queries.quantile")
	WriteJSON(w, http.StatusOK, map[string]any{
		"q": quant, "value": value, "n": thresholdN(view),
	})
}
