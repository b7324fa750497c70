// Allocation counts mean nothing under the race detector, which makes
// sync.Pool drop items at random and instruments every allocation.

//go:build !race

package serve_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"streamfreq"
	"streamfreq/internal/core"
	"streamfreq/internal/serve"
	"streamfreq/internal/stream"
	"streamfreq/internal/tenant"
	"streamfreq/internal/testutil"
	"streamfreq/internal/zipf"
)

// Per-request allocation bounds for one ingest request: a read buffer
// and a batch buffer sized for the largest body (64 KiB and 32 KiB)
// would each break them on their own.
const (
	rawBodyBound  = 16 << 10 // 512 items, raw or in a stream file
	textBodyBound = 24 << 10 // 32 text tokens
)

// ingestBodies returns 512 items as a raw body and as a stream file,
// and a 32-token text body.
func ingestBodies(tb testing.TB) (raw, file, text []byte) {
	tb.Helper()
	g, err := zipf.NewGenerator(1<<16, 1.1, 3, true)
	if err != nil {
		tb.Fatal(err)
	}
	items := g.Stream(512)
	var sf bytes.Buffer
	if err := stream.Write(&sf, "ingest", items); err != nil {
		tb.Fatal(err)
	}
	toks := make([]string, 32)
	for i := range toks {
		toks[i] = "w" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
	}
	return stream.AppendRaw(nil, items), sf.Bytes(), []byte(strings.Join(toks, " "))
}

// TestIngestAllocationBounded: an ingest request allocates what its
// body needs. 512 items in a raw body and in a stream file, and a
// 32-token text body, each served through the handler of a plain node
// and into a tenant namespace, stay under the per-request bounds.
func TestIngestAllocationBounded(t *testing.T) {
	raw, file, text := ingestBodies(t)
	table, err := tenant.NewTable(tenant.Options{DefaultPhi: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	nodes := []struct {
		name, path string
		h          http.Handler
	}{
		{"node", "/v1/ingest", serve.NewServer(serve.Options{
			Target: core.NewConcurrent(streamfreq.MustNew("SSH", 0.001, 1))}).Handler()},
		{"tenant", "/v1/t/eu/ingest", serve.NewServer(serve.Options{Target: table, Tenants: table}).Handler()},
	}
	for _, node := range nodes {
		for _, body := range []struct {
			name, contentType string
			data              []byte
			bound             float64
		}{
			{"raw512", "application/octet-stream", raw, rawBodyBound},
			{"sfstream512", "application/x-sfstream", file, rawBodyBound},
			{"text32", "text/plain", text, textBodyBound},
		} {
			t.Run(node.name+"/"+body.name, func(t *testing.T) {
				got := testutil.BytesPerRequest(t, node.h, 500, func() *http.Request {
					r := httptest.NewRequest(http.MethodPost, node.path, bytes.NewReader(body.data))
					r.Header.Set("Content-Type", body.contentType)
					return r
				})
				t.Logf("%.1f KiB per request", got/1024)
				if got > body.bound {
					t.Errorf("%.1f KiB per request, want at most %.0f KiB", got/1024, body.bound/1024)
				}
			})
		}
	}
}

// BenchmarkIngestRequest is one ingest request through a plain node's
// handler, the request TestIngestAllocationBounded bounds; its B/op is
// the trend of that per-request allocation.
func BenchmarkIngestRequest(b *testing.B) {
	raw, _, text := ingestBodies(b)
	h := serve.NewServer(serve.Options{Target: core.NewConcurrent(streamfreq.MustNew("SSH", 0.001, 1))}).Handler()
	for _, body := range []struct {
		name, contentType string
		data              []byte
	}{
		{"raw512", "application/octet-stream", raw},
		{"text32", "text/plain", text},
	} {
		b.Run(body.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body.data)))
			for i := 0; i < b.N; i++ {
				r := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body.data))
				r.Header.Set("Content-Type", body.contentType)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body)
				}
			}
		})
	}
}
