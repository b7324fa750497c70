// Package obs is the observability plane shared by freqd, freqmerge,
// and freqrouter: atomic counters, gauges read at scrape time (from a
// function or a stats document field), a fixed-boundary log₂-bucket
// latency histogram (one atomic add per observation, zero allocations
// steady-state), a registry that renders the Prometheus text
// exposition format at GET /v1/metrics, structured slog loggers, and
// X-Freq-Trace request-tracing helpers. It depends only on the
// standard library.
//
// The registry is per-process state owned by whoever builds the
// daemon — there are no package-level globals, so tests can build as
// many isolated planes as they like.
package obs

import (
	"fmt"
	"math/bits"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing series. The zero value is
// ready to use; Add is a single atomic add.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d. Counters are monotonic by contract; callers must not
// pass negative deltas.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// HistogramOpts fixes a histogram's bucket geometry. Upper bounds are
// powers of two in the histogram's native unit: bucket i covers
// observations ≤ 2^(Base+i), with one extra implicit +Inf bucket.
// Scale divides bounds and sum at render time only — a latency
// histogram observes nanoseconds (Scale 1e9) and renders seconds, so
// the hot path never touches floating point.
type HistogramOpts struct {
	Base    int     // exponent of the first upper bound (bucket 0 covers v ≤ 2^Base)
	Buckets int     // finite bucket count (excluding +Inf)
	Scale   float64 // render-time divisor; 0 means 1 (render native units)
}

// LatencyOpts covers 1.024µs .. ~17s in nanoseconds, rendered as
// seconds. 25 finite buckets: fine enough for p50/p90/p99 on the
// query path, coarse enough to stay a single cache line pair.
func LatencyOpts() HistogramOpts { return HistogramOpts{Base: 10, Buckets: 25, Scale: 1e9} }

// SizeOpts covers 1 .. 2^24 items for batch-size distributions.
func SizeOpts() HistogramOpts { return HistogramOpts{Base: 0, Buckets: 25, Scale: 1} }

// Histogram is a fixed-boundary log₂ histogram. Observe is one atomic
// add into the matched bucket plus one into the running sum — no
// locks, no allocation. The scrape renders the cumulative bucket
// counts, from which a reader derives quantiles.
type Histogram struct {
	base    int
	scale   float64
	sum     atomic.Int64
	buckets []atomic.Int64 // len = Buckets+1; last is +Inf
}

func newHistogram(o HistogramOpts) *Histogram {
	if o.Buckets <= 0 || o.Buckets > 62 {
		panic(fmt.Sprintf("obs: histogram bucket count %d out of range", o.Buckets))
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return &Histogram{base: o.Base, scale: o.Scale, buckets: make([]atomic.Int64, o.Buckets+1)}
}

// bucketFor returns the index of the lowest bucket whose upper bound
// covers v: the smallest i with v ≤ 2^(base+i), clamped to the +Inf
// bucket.
func (h *Histogram) bucketFor(v int64) int {
	if v <= 1<<h.base {
		return 0
	}
	i := bits.Len64(uint64(v-1)) - h.base // smallest e with v ≤ 2^e, shifted
	if i >= len(h.buckets) {
		return len(h.buckets) - 1
	}
	return i
}

// Observe records one observation in the histogram's native unit.
// Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[h.bucketFor(v)].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed time since start in nanoseconds.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(int64(time.Since(start))) }

// Label is one name="value" pair on a series. Cardinality discipline
// is the caller's: shard IDs and algorithm names are bounded and
// belong in labels; tenant namespaces and stream items are not and do
// not.
type Label struct{ Key, Value string }

// series kinds, also the rendered TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

type series struct {
	labels []Label
	key    string // canonical label fingerprint for dedup/sort

	ctr   *Counter
	hist  *Histogram
	fn    func() float64 // CounterFunc/GaugeFunc collector
	doc   *statsDoc      // Stats document holding the value,
	field []int          // at this field index path
}

type family struct {
	name   string
	help   string
	typ    string
	series []*series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Constructors are get-or-create and
// idempotent for identical (name, type, labels); re-registering a
// name with a different type panics — that is a programming error,
// not an operational condition.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

var nameOK = func(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for _, l := range sorted {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

func (r *Registry) lookup(name, help, typ string, labels []Label) *series {
	if !nameOK(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameOK(l.Key) || strings.Contains(l.Key, ":") {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l.Key, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.fams[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ}
		r.fams[name] = fam
	} else if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, typ, fam.typ))
	}
	key := labelKey(labels)
	for _, s := range fam.series {
		if s.key == key {
			return s
		}
	}
	s := &series{labels: append([]Label(nil), labels...), key: key}
	fam.series = append(fam.series, s)
	return s
}

// Counter returns the counter series for name+labels, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, typeCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ctr == nil && s.fn == nil && s.doc == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// GaugeFunc registers a gauge whose value is read by fn at scrape
// time, for a value no stats document (Stats) carries. fn must be
// safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, typeGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
}

// CounterFunc registers a counter read from fn at scrape time. fn
// must be monotonic and safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, typeCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
}

// Histogram returns the histogram series for name+labels, creating it
// with the given geometry on first use. Later calls with the same
// name ignore opts.
func (r *Registry) Histogram(name, help string, opts HistogramOpts, labels ...Label) *Histogram {
	s := r.lookup(name, help, typeHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = newHistogram(opts)
	}
	return s.hist
}

// ContentType is the exposition media type served at /v1/metrics —
// Prometheus text format 0.0.4.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		w.Write([]byte(r.Render()))
	})
}
