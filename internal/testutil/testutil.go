// Package testutil holds the shared condition-polling helpers the test
// suites use instead of bare time.Sleep. A sleep encodes a guess about
// scheduler and I/O latency — too short flakes under -race or CI load,
// too long wastes every run forever. Polling encodes the actual
// postcondition: the test proceeds the moment it holds and fails loudly
// (with the caller's description) only when it genuinely never does.
//
// It also holds the byte-golden checks the wire-format tests share (of
// the current encoders, and of the bytes earlier ones wrote), and the
// per-request allocation probe the ingest fronts' tests share.
package testutil

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// pollEvery is the condition re-check cadence: fine enough that tests
// don't dawdle after the condition flips, coarse enough not to spin.
const pollEvery = 2 * time.Millisecond

// Poll re-checks cond every few milliseconds until it returns true or
// timeout elapses, reporting whether the condition held. The non-fatal
// variant, for tests that want to assert something richer on failure.
func Poll(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(pollEvery)
	}
}

// Eventually fails the test if cond does not hold within timeout. The
// format/args describe what was being waited for, so a timeout reads as
// a real assertion failure, not a mystery hang.
func Eventually(t testing.TB, timeout time.Duration, cond func() bool, format string, args ...any) {
	t.Helper()
	if !Poll(timeout, cond) {
		t.Fatalf("condition never held within %v: "+format, append([]any{timeout}, args...)...)
	}
}

// Golden is one named wire encoding pinned by a golden file.
type Golden struct {
	Name string
	Blob []byte
}

// CheckGolden compares got, entry by entry, with the entries stored in
// the golden file at path and returns the stored ones, so a caller can
// also decode them. A deliberate change deletes the file: the next run
// writes got there, one entry per line, and fails, so the diff — a line
// per changed entry — gets reviewed before the rerun passes.
func CheckGolden[E any](t testing.TB, path string, got []E) []E {
	t.Helper()
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		lines := make([][]byte, len(got))
		for i := range got {
			if lines[i], err = json.Marshal(got[i]); err != nil {
				t.Fatal(err)
			}
		}
		raw = slices.Concat([]byte("[\n"), bytes.Join(lines, []byte(",\n")), []byte("\n]\n"))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it, then rerun", path)
	}
	var want []E
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d entries, the test builds %d", path, len(want), len(got))
	}
	for i, w := range want {
		if !reflect.DeepEqual(got[i], w) {
			t.Errorf("%s: entry %d differs from the golden:\n got %+v\nwant %+v", path, i, got[i], w)
		}
	}
	return want
}

// CheckLegacyGolden checks the goldens an earlier encoder wrote, kept
// in the file at path as it left them: each entry must decode and
// re-encode, through reencode, to want[entry.Name], the current golden
// of the same state. The file is never rewritten, since this build
// writes none of its bytes.
func CheckLegacyGolden(t testing.TB, path string, want map[string][]byte, reencode func(Golden) ([]byte, error)) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var legacy []Golden
	if err := json.Unmarshal(raw, &legacy); err != nil {
		t.Fatal(err)
	}
	if len(legacy) == 0 {
		t.Fatalf("%s holds no entries", path)
	}
	for _, l := range legacy {
		w, ok := want[l.Name]
		if !ok {
			t.Errorf("%s: no current golden for %s", path, l.Name)
			continue
		}
		got, err := reencode(l)
		if err != nil {
			t.Errorf("%s: %s does not decode: %v", path, l.Name, err)
			continue
		}
		if !bytes.Equal(got, w) {
			t.Errorf("%s: %s re-encodes to %d bytes that differ from its current golden (%d bytes)", path, l.Name, len(got), len(w))
		}
	}
}

// BytesPerRequest returns the bytes h allocates per request: it serves
// a warm-up of requests built by newReq, then n more, and divides the
// growth of runtime.MemStats.TotalAlloc by n. The measured requests
// and their recorders are built before the first reading, so only the
// handler's own allocations count. Every response must be 200.
func BytesPerRequest(t testing.TB, h http.Handler, n int, newReq func() *http.Request) float64 {
	t.Helper()
	serve := func(reqs []*http.Request, recs []*httptest.ResponseRecorder) {
		for i, r := range reqs {
			h.ServeHTTP(recs[i], r)
		}
	}
	build := func(n int) ([]*http.Request, []*httptest.ResponseRecorder) {
		reqs, recs := make([]*http.Request, n), make([]*httptest.ResponseRecorder, n)
		for i := range reqs {
			reqs[i], recs[i] = newReq(), httptest.NewRecorder()
		}
		return reqs, recs
	}
	serve(build(50))
	reqs, recs := build(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	serve(reqs, recs)
	runtime.ReadMemStats(&after)
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", reqs[0].Method, reqs[0].URL, rec.Code, rec.Body)
		}
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}
