// Allocation counts mean nothing under the race detector, which makes
// sync.Pool drop items at random and instruments every allocation.

//go:build !race

package router_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"streamfreq/internal/router"
	"streamfreq/internal/stream"
	"streamfreq/internal/testutil"
	"streamfreq/internal/zipf"
)

// ackTransport stands in for every replica in process: it drains a
// forward's body and acknowledges it, allocating little of its own, so
// an allocation probe counts the router's work and its HTTP client's.
type ackTransport struct{}

func (ackTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if _, err := io.Copy(io.Discard, r.Body); err != nil {
		return nil, err
	}
	r.Body.Close()
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(strings.NewReader(`{"n":1}`)), Request: r}, nil
}

// TestIngestAllocationBounded: a router ingest request allocates what
// its body needs. A 512-item raw body and a 32-token text body, each
// split over two shards and forwarded, stay under the bounds freqd's
// own ingest meets (internal/serve's TestIngestAllocationBounded).
func TestIngestAllocationBounded(t *testing.T) {
	rt, err := router.New(router.Options{
		Shards: []router.ShardConfig{
			{ID: "a", Replicas: []string{"http://a"}},
			{ID: "b", Replicas: []string{"http://b"}},
		},
		Client: &http.Client{Transport: ackTransport{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := zipf.NewGenerator(1<<16, 1.1, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	toks := make([]string, 32)
	for i := range toks {
		toks[i] = "w" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
	}
	for _, body := range []struct {
		name, contentType string
		data              []byte
		bound             float64
	}{
		{"raw512", "application/octet-stream", stream.AppendRaw(nil, g.Stream(512)), 16 << 10},
		{"text32", "text/plain", []byte(strings.Join(toks, " ")), 24 << 10},
	} {
		t.Run(body.name, func(t *testing.T) {
			got := testutil.BytesPerRequest(t, rt.Handler(), 500, func() *http.Request {
				r := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body.data))
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
