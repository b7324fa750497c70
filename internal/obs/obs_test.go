package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram(HistogramOpts{Base: 0, Buckets: 4}) // bounds 1,2,4,8,+Inf
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1 << 40, 4},
	}
	for _, c := range cases {
		v := c.v
		if v < 0 {
			v = 0
		}
		if got := h.bucketFor(v); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	if n != int64(len(cases)) {
		t.Fatalf("Count = %d, want %d", n, len(cases))
	}
}

func TestRegistryRenderAndParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("freq_ingest_items_total", "Items accepted.").Add(42)
	r.Counter("freq_http_requests_total", "Requests.", Label{"route", "/v1/ingest"}, Label{"code", "2xx"}).Add(7)
	r.Counter("freq_http_requests_total", "Requests.", Label{"route", "/v1/topk"}, Label{"code", "2xx"}).Add(3)
	r.GaugeFunc("freq_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	h := r.Histogram("freq_http_request_seconds", "Request latency.", LatencyOpts(), Label{"route", "/v1/topk"})
	h.Observe(int64(3 * time.Millisecond))
	h.Observe(int64(40 * time.Microsecond))
	weird := r.Counter("freq_weird_total", "Label escaping.", Label{"path", `a\b"c` + "\n"})
	weird.Inc()

	text := r.Render()
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\n%s", err, text)
	}
	if got := fams["freq_ingest_items_total"].Series[0].Value; got != 42 {
		t.Errorf("ingest items = %v, want 42", got)
	}
	reqs := fams["freq_http_requests_total"]
	if len(reqs.Series) != 2 {
		t.Fatalf("requests series = %d, want 2", len(reqs.Series))
	}
	hist := fams["freq_http_request_seconds"]
	if hist.Type != "histogram" {
		t.Fatalf("histogram family type = %q", hist.Type)
	}
	var count, sum float64
	for _, s := range hist.Series {
		switch s.Name {
		case "freq_http_request_seconds_count":
			count = s.Value
		case "freq_http_request_seconds_sum":
			sum = s.Value
		}
	}
	if count != 2 {
		t.Errorf("histogram count = %v, want 2", count)
	}
	if sum < 0.003 || sum > 0.0031 {
		t.Errorf("histogram sum = %v s, want ~0.00304", sum)
	}
	wl := fams["freq_weird_total"].Series[0].Labels["path"]
	if wl != `a\b"c`+"\n" {
		t.Errorf("escaped label round-trip = %q", wl)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	bad := []string{
		"freq_orphan 1\n",              // sample without TYPE
		"# TYPE x counter\nx{le 1\n",   // unterminated labels
		"# TYPE x counter\nx 1\nx 2\n", // duplicate series
		"# TYPE x wat\n",               // unknown type
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",                          // no +Inf
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n", // not cumulative
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 9\n",                       // count mismatch
	}
	for _, in := range bad {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("ParseExposition accepted malformed input %q", in)
		}
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("freq_x_total", "x")
	b := r.Counter("freq_x_total", "x")
	if a != b {
		t.Error("same name+labels should return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	r.GaugeFunc("freq_x_total", "x", func() float64 { return 0 })
}

func TestSetLegacyKeysAndPromNames(t *testing.T) {
	reg := NewRegistry()
	s := NewSet(reg, "freq")
	s.Add("ingest.items", 10)
	s.Add("ingest.items", 5)
	s.Add("queries.topk", 1)
	if s.Get("ingest.items") != 15 {
		t.Errorf("Get = %d, want 15", s.Get("ingest.items"))
	}
	if s.Get("never.written") != 0 {
		t.Error("unwritten key should read 0")
	}
	snap := s.Snapshot()
	if snap["ingest.items"] != 15 || snap["queries.topk"] != 1 {
		t.Errorf("Snapshot = %v", snap)
	}
	text := reg.Render()
	if !strings.Contains(text, "freq_ingest_items_total 15") {
		t.Errorf("prom name for dotted key missing:\n%s", text)
	}
}

func TestSetConcurrent(t *testing.T) {
	s := NewSet(NewRegistry(), "freq")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := []string{"a.b", "c.d", "e.f", "g.h"}
			for i := 0; i < 1000; i++ {
				s.Add(keys[(g+i)%len(keys)], 1)
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, v := range s.Snapshot() {
		total += v
	}
	if total != 8000 {
		t.Errorf("total = %d, want 8000", total)
	}
}

func TestTraceIDs(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestNewRejectsUnknownFormat(t *testing.T) {
	if _, err := New(Options{LogFormat: "xml"}); err == nil {
		t.Error("want error for unknown log format")
	}
}

// BenchmarkMetricsObserve is CI-gated at 0 allocs/op: the histogram
// observe path — one request's worth of instrumentation — must stay
// allocation-free and a handful of atomic adds.
func BenchmarkMetricsObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("freq_http_request_seconds", "latency", LatencyOpts(), Label{"route", "/v1/ingest"})
	c := r.Counter("freq_http_requests_total", "requests", Label{"route", "/v1/ingest"}, Label{"code", "2xx"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i&0xfffff) + 1000)
		c.Inc()
	}
}

// BenchmarkSetAdd measures the lock-free counter set under concurrent
// callers — the access pattern of the query handlers.
func BenchmarkSetAdd(b *testing.B) {
	s := NewSet(NewRegistry(), "freq")
	s.Add("queries.topk", 0)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.Add("queries.topk", 1)
		}
	})
}
