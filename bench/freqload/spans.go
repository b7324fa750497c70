package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamfreq"
	"streamfreq/internal/core"
	"streamfreq/internal/obs"
	"streamfreq/internal/persist"
)

// span is one timed call at a layer boundary of the traced run. Times
// are nanoseconds since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // the span that caused it, when the join found one
	Kind   string `json:"kind"`             // layer.operation, e.g. router.forward
	Node   string `json:"node"`             // the daemon (or loadgen) it ran in
	Trace  string `json:"trace,omitempty"`  // X-Freq-Trace, for HTTP spans
	Route  string `json:"route,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Peer   string `json:"peer,omitempty"` // the daemon a client span went to
	Status int    `json:"status,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"` // request body
	Resp   int64  `json:"resp_bytes,omitempty"`
	Items  int    `json:"items,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory while on; a nil recorder records
// nothing.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) tracing() bool { return r != nil && r.on.Load() }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// newTraceID mints a 16-hex-digit X-Freq-Trace ID.
func (r *recorder) newTraceID() string { return fmt.Sprintf("f1%014x", r.ids.Add(1)) }

func (r *recorder) add(s span) {
	if !r.tracing() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceCall runs f inside a span of kind on node, when tracing.
func (r *recorder) traceCall(kind, node string, items int, f func()) {
	if !r.tracing() {
		f()
		return
	}
	start := r.now()
	f()
	r.add(span{Kind: kind, Node: node, Start: start, End: r.now(), Items: items})
}

// tracedPersister times the WAL appends the ingest path makes (it sits
// between the summary wrapper and the store, so the appends happen
// inside the apply spans).
type tracedPersister struct {
	store *persist.Store
	rec   *recorder
	node  string
}

func (p *tracedPersister) AppendBatch(items []core.Item) {
	p.rec.traceCall("persist.append", p.node, len(items), func() { p.store.AppendBatch(items) })
}

func (p *tracedPersister) AppendUpdate(x core.Item, count int64) { p.store.AppendUpdate(x, count) }

func (p *tracedPersister) AppendTenantBatch(ns string, k int, items []core.Item) {
	p.rec.traceCall("persist.append", p.node, len(items), func() { p.store.AppendTenantBatch(ns, k, items) })
}

// tracedConcurrent and tracedPipelined embed the serving wrapper, so
// every optional surface serve looks for (snapshots, pipeline stats,
// durability) stays visible, and time UpdateBatch and ServingView.
type tracedConcurrent struct {
	*core.Concurrent
	rec  *recorder
	node string
}

func (t *tracedConcurrent) UpdateBatch(items []core.Item) {
	t.rec.traceCall("core.apply", t.node, len(items), func() { t.Concurrent.UpdateBatch(items) })
}

func (t *tracedConcurrent) ServingView() (v core.ReadView) {
	t.rec.traceCall("core.view", t.node, 0, func() { v = t.Concurrent.ServingView() })
	return v
}

type tracedPipelined struct {
	*core.Pipelined
	rec  *recorder
	node string
}

func (t *tracedPipelined) UpdateBatch(items []core.Item) {
	t.rec.traceCall("core.apply", t.node, len(items), func() { t.Pipelined.UpdateBatch(items) })
}

func (t *tracedPipelined) ServingView() (v core.ReadView) {
	t.rec.traceCall("core.view", t.node, 0, func() { v = t.Pipelined.ServingView() })
	return v
}

// tracedMerge times the coordinator's decode of each pulled blob.
func tracedMerge(rec *recorder) func(blobs ...[]byte) (core.Summary, error) {
	return func(blobs ...[]byte) (sum core.Summary, err error) {
		rec.traceCall("cluster.decode", "freqmerge", 0, func() { sum, err = streamfreq.MergeEncoded(blobs...) })
		return sum, err
	}
}

// statusWriter captures a handler's status code.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// traceHandler records one span per request a daemon serves, keyed by
// its X-Freq-Trace (minted here when the caller sent none, so the
// daemon's own trace ID is the span's).
func traceHandler(rec *recorder, kind, node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.tracing() {
			h.ServeHTTP(w, r)
			return
		}
		tid := r.Header.Get(obs.TraceHeader)
		if tid == "" {
			tid = rec.newTraceID()
			r.Header.Set(obs.TraceHeader, tid)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := rec.now()
		h.ServeHTTP(sw, r)
		rec.add(span{Kind: kind, Node: node, Trace: tid, Route: routeOf(r.URL.Path),
			Start: start, End: rec.now(), Status: sw.code, Bytes: r.ContentLength})
	})
}

// routeOf names a request by its last path segment: ingest, topk,
// summary, ... (tenant routes included).
func routeOf(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// tracedTransport records one span per request a daemon sends to
// another: from the call until the reply body is read to its end or
// closed, with the bytes each way and the peer it went to.
type tracedTransport struct {
	base  http.RoundTripper
	rec   *recorder
	kind  string
	node  string
	peers map[string]string // host:port → daemon name
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.tracing() {
		return t.base.RoundTrip(req)
	}
	sp := span{Kind: t.kind, Node: t.node, Peer: t.peers[req.URL.Host], Trace: req.Header.Get(obs.TraceHeader),
		Route: routeOf(req.URL.Path), Start: t.rec.now(), Bytes: req.ContentLength}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.End = t.rec.now()
		t.rec.add(sp)
		return nil, err
	}
	sp.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, sp: sp}
	return resp, nil
}

// spanBody ends its span when the body is drained or closed.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	sp   span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.Resp += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.sp.End = b.rec.now()
		b.rec.add(b.sp)
	})
}
