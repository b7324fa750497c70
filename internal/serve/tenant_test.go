package serve_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"streamfreq/internal/counters"
	"streamfreq/internal/persist"
	"streamfreq/internal/serve"
	"streamfreq/internal/tenant"
)

// TestUnreloadableTenantAnswers500: a restored tenant whose blob
// repeats an item cannot be reloaded. Its reads answer 500 naming the
// namespace instead of an empty 200, its writes answer 500 instead of
// blaming the client, and a namespace never created is still a 404.
func TestUnreloadableTenantAnswers500(t *testing.T) {
	s := counters.NewSpaceSavingHeap(4)
	s.Update(1, 1)
	s.Update(2, 1)
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const first = 4 + 3*8 // SS01 header: magic, k, n, entry count
	copy(blob[first+24:first+32], blob[first:first+8])
	table, err := tenant.NewTable(tenant.Options{DefaultPhi: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := table.RestoreTenants([]persist.TenantState{{NS: "p", K: 4, N: 2, Blob: blob}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(serve.Options{Target: table, Algo: "SSH", Tenants: table}).Handler())
	defer ts.Close()

	var item [8]byte
	binary.LittleEndian.PutUint64(item[:], 1)
	for _, c := range []struct {
		method, path string
		status       int
		code         string
	}{
		{http.MethodGet, "/v1/t/p/topk?phi=0.25", http.StatusInternalServerError, "internal"},
		{http.MethodGet, "/v1/t/p/estimate?item=1", http.StatusInternalServerError, "internal"},
		{http.MethodPost, "/v1/t/p/ingest", http.StatusInternalServerError, "internal"},
		{http.MethodGet, "/v1/t/nosuch/topk", http.StatusNotFound, "not_found"},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(item[:]))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error serve.ErrorBody }
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: decoding: %v", c.method, c.path, err)
		}
		if resp.StatusCode != c.status || body.Error.Code != c.code {
			t.Fatalf("%s %s: %d %+v, want %d %s", c.method, c.path, resp.StatusCode, body.Error, c.status, c.code)
		}
		if c.status == http.StatusInternalServerError && !strings.Contains(body.Error.Message, `"p"`) {
			t.Fatalf("%s %s: message %q does not name the namespace", c.method, c.path, body.Error.Message)
		}
	}
}
