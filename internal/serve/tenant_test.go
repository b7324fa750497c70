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
// The default namespace "" behind the un-namespaced routes answers the
// same way.
func TestUnreloadableTenantAnswers500(t *testing.T) {
	s := counters.NewSpaceSavingHeap(4)
	s.Update(1, 1)
	s.Update(2, 1)
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// SS02: the magic, then k, n and the entry count, one varint byte
	// each here; then per entry an 8-byte item and one-byte count and
	// error. Entry 1 takes entry 0's item.
	const first, entry = 4 + 3, 8 + 2
	if len(blob) != first+2*entry {
		t.Fatalf("blob is %d bytes, want %d", len(blob), first+2*entry)
	}
	copy(blob[first+entry:first+entry+8], blob[first:first+8])
	table, err := tenant.NewTable(tenant.Options{DefaultPhi: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := table.RestoreTenants([]persist.TenantState{
		{NS: "p", K: 4, N: 2, Blob: blob},
		{NS: "", K: 4, N: 2, Blob: blob},
	}); err != nil {
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
		ns           string // the namespace a 500 must name
	}{
		{http.MethodGet, "/v1/t/p/topk?phi=0.25", http.StatusInternalServerError, "internal", `"p"`},
		{http.MethodGet, "/v1/t/p/estimate?item=1", http.StatusInternalServerError, "internal", `"p"`},
		{http.MethodPost, "/v1/t/p/ingest", http.StatusInternalServerError, "internal", `"p"`},
		{http.MethodGet, "/v1/t/nosuch/topk", http.StatusNotFound, "not_found", ""},
		{http.MethodGet, "/v1/topk?phi=0.25", http.StatusInternalServerError, "internal", `""`},
		{http.MethodGet, "/v1/estimate?item=1", http.StatusInternalServerError, "internal", `""`},
		{http.MethodPost, "/v1/ingest", http.StatusInternalServerError, "internal", `""`},
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
		if !strings.Contains(body.Error.Message, c.ns) {
			t.Fatalf("%s %s: message %q does not name the namespace", c.method, c.path, body.Error.Message)
		}
	}
}

// TestDefaultNamespaceIsItsOwnStream: on a tenant node the
// un-namespaced routes answer the default namespace "" from its own
// stream, as a freqmerge over the node does, not from the whole
// table's n; their default φ stays 0.01, and the ingest ack's n stays
// the table's live position, the /stats n.
func TestDefaultNamespaceIsItsOwnStream(t *testing.T) {
	table, err := tenant.NewTable(tenant.Options{DefaultPhi: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(serve.Options{Target: table, Algo: "SSH", Tenants: table}).Handler())
	defer ts.Close()
	raw := func(items ...uint64) []byte {
		var b []byte
		for _, it := range items {
			b = binary.LittleEndian.AppendUint64(b, it)
		}
		return b
	}
	var est struct{ Estimate int64 }

	distinct := make([]uint64, 90)
	for i := range distinct {
		distinct[i] = uint64(1000 + i)
	}
	postOK(t, ts.URL+"/v1/t/a/ingest", "application/octet-stream", raw(distinct...))
	// "" was never created: the empty stream, not a 404 and not the
	// table's 90 items.
	var empty topkResponse
	getJSON(t, ts.URL+"/v1/topk?phi=0.25", &empty)
	if empty.N != 0 || len(empty.Items) != 0 {
		t.Fatalf("/v1/topk before any un-namespaced ingest = %+v, want n 0 and no items", empty)
	}

	resp := post(t, ts.URL+"/v1/ingest", "application/octet-stream", raw(7, 7, 7, 7, 7, 7, 7, 7, 7, 7))
	var ack struct{ N int64 }
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/ingest: %d, %v", resp.StatusCode, err)
	}
	var stats struct{ N int64 }
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if ack.N != 100 || stats.N != 100 {
		t.Fatalf("ingest ack n %d and /stats n %d, want the table's 100", ack.N, stats.N)
	}

	for _, c := range []struct {
		query     string
		threshold int64
	}{
		{"?phi=0.25", 2}, // ⌊0.25 × 10⌋, against ""'s own 10 arrivals
		{"", 1},          // the default φ 0.01, not the table's 0.25
	} {
		var got topkResponse
		getJSON(t, ts.URL+"/v1/topk"+c.query, &got)
		if got.N != 10 || got.Threshold != c.threshold || len(got.Items) != 1 ||
			got.Items[0].Item != 7 || got.Items[0].Count != 10 {
			t.Fatalf("/v1/topk%s = %+v, want n 10, threshold %d and item 7 at 10", c.query, got, c.threshold)
		}
	}
	getJSON(t, ts.URL+"/v1/estimate?item=7", &est)
	if est.Estimate != 10 {
		t.Fatalf("/v1/estimate?item=7 = %d, want 10", est.Estimate)
	}
}
