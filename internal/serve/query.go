package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"streamfreq/internal/core"
	"streamfreq/internal/obs"
)

// The query half of the freqd HTTP API, factored so any process that can
// produce a core.ReadView serves the identical /topk and /estimate —
// a single node answers from its snapshot epoch, a freqmerge coordinator
// from its merged cluster view, and clients cannot tell them apart.

// Wire constants of the summary-shipping endpoint (GET /summary): the
// body is the summary's registry Encode blob, and the headers carry the
// metadata a coordinator needs without decoding first.
const (
	// SummaryContentType is the media type of an Encode blob in transit.
	SummaryContentType = "application/x-freq-summary"
	// HeaderAlgo carries the serving algorithm label.
	HeaderAlgo = "X-Freq-Algo"
	// HeaderN carries the stream position (Summary.N) of the shipped
	// snapshot, as decimal.
	HeaderN = "X-Freq-N"
	// HeaderEpoch carries the node's process epoch, as decimal. The epoch
	// is drawn once per process start, so a changed epoch tells a puller
	// the node restarted: whatever it ships now is the recovered
	// cumulative state (WAL replay included), to be swapped in wholesale —
	// replaced, never added, or a restart would double-count.
	HeaderEpoch = "X-Freq-Epoch"
)

// WriteJSON renders v with the given status; encoding failures are
// programming errors surfaced as broken responses, not panics.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ErrorBody is the one error envelope every daemon speaks:
// {"error":{"code":"...","message":"..."}}. The code is a stable
// machine-readable token derived from the status; the message is for
// humans and may reword freely.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// HTTPError renders the JSON error envelope with the given status.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]ErrorBody{"error": {
		Code:    errorCode(status),
		Message: fmt.Sprintf(format, args...),
	}})
}

// reportedItem is one /topk row.
type reportedItem struct {
	Item  uint64 `json:"item"`
	Count int64  `json:"count"`
	Token string `json:"token,omitempty"`
}

// parseItem accepts decimal or 0x-prefixed hex item identifiers.
func parseItem(s string) (core.Item, error) {
	base := 10
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		s, base = s[2:], 16
	}
	v, err := strconv.ParseUint(s, base, 64)
	return core.Item(v), err
}

// QueryHandlers answers /topk and /estimate against pinned views. View
// is called once per request so the n/threshold/report triple of a
// response is internally consistent; Name (optional) labels reported
// items with token spellings; Counters (optional) counts query traffic
// — an obs.Set, so concurrent query handlers never serialize on a
// shared mutex.
type QueryHandlers struct {
	View     func() core.ReadView
	Name     func(core.Item) string
	Counters *obs.Set
	// DefaultPhi is the threshold used when a /topk request names
	// neither ?phi nor ?threshold (0 means the historical 0.01). Tenant
	// routes set it to the namespace's φ.
	DefaultPhi float64
}

func (q *QueryHandlers) defaultPhi() float64 {
	if q.DefaultPhi > 0 {
		return q.DefaultPhi
	}
	return 0.01
}

// windowedView is the optional recent-traffic surface of a sliding-
// window summary (window.Windowed and its snapshots implement it): the
// φ-threshold denominator over the current window rather than the whole
// stream history. A /topk?phi= against a windowed view means "φ of
// recent traffic" — thresholding φ against the ever-growing total N
// would drift the operating point above anything a window can hold.
type windowedView interface {
	WindowN() int64
}

// thresholdN returns the denominator φ-style thresholds divide: the
// windowed stream length for windowed views, the full stream length
// otherwise.
func thresholdN(view core.ReadView) int64 {
	if wv, ok := view.(windowedView); ok {
		return wv.WindowN()
	}
	return view.N()
}

func (q *QueryHandlers) count(key string) {
	if q.Counters != nil {
		q.Counters.Add(key, 1)
	}
}

func (q *QueryHandlers) label(it core.Item) string {
	if q.Name == nil {
		return ""
	}
	return q.Name(it)
}

// TopK answers a threshold query (?phi= or ?threshold=, &k= caps the
// report, &horizon= narrows a multi-resolution summary to one wall-clock
// span) against one pinned view. Method enforcement is the API wrapper's
// job (Route), not the handler's.
func (q *QueryHandlers) TopK(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	view := q.View()
	if raw := query.Get("horizon"); raw != "" {
		v, ok := resolveHorizon(w, view, raw)
		if !ok {
			return
		}
		view = v
	}
	n := thresholdN(view)
	threshold, ok := q.parseThreshold(w, query, n)
	if !ok {
		return
	}
	report := view.Query(threshold)
	if kStr := query.Get("k"); kStr != "" {
		k, err := strconv.Atoi(kStr)
		if err != nil || k < 0 {
			HTTPError(w, http.StatusBadRequest, "k must be a non-negative integer")
			return
		}
		if k < len(report) {
			report = report[:k]
		}
	}
	items := make([]reportedItem, len(report))
	for i, ic := range report {
		items[i] = reportedItem{Item: uint64(ic.Item), Count: ic.Count, Token: q.label(ic.Item)}
	}
	q.count("queries.topk")
	WriteJSON(w, http.StatusOK, map[string]any{"n": n, "threshold": threshold, "items": items})
}

// Estimate answers a point query (?item=123 | ?item=0x7b | ?token=foo)
// from one pinned view.
func (q *QueryHandlers) Estimate(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	var it core.Item
	switch {
	case query.Get("item") != "":
		v, err := parseItem(query.Get("item"))
		if err != nil {
			HTTPError(w, http.StatusBadRequest, "item must be a decimal or 0x-hex uint64")
			return
		}
		it = v
	case query.Get("token") != "":
		it = core.HashString(query.Get("token"))
	default:
		HTTPError(w, http.StatusBadRequest, "item or token parameter required")
		return
	}
	q.count("queries.estimate")
	WriteJSON(w, http.StatusOK, map[string]any{"item": uint64(it), "estimate": q.View().Estimate(it)})
}

// WriteSummary renders one summary snapshot as a /summary response:
// metadata headers, then the Encode blob. Shared by nodes (live snapshot)
// and coordinators (merged cluster state), which is what lets clusters
// stack — a coordinator's /summary feeds a higher-tier coordinator
// exactly like a node's feeds it.
func WriteSummary(w http.ResponseWriter, algo string, epoch uint64, snap core.Summary) {
	blob, err := core.EncodeSummary(snap)
	if err != nil {
		HTTPError(w, http.StatusNotImplemented, "summary has no wire format: %v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", SummaryContentType)
	h.Set(HeaderAlgo, algo)
	h.Set(HeaderN, strconv.FormatInt(snap.N(), 10))
	h.Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}
