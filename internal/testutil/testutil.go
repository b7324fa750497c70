// Package testutil holds the shared condition-polling helpers the test
// suites use instead of bare time.Sleep. A sleep encodes a guess about
// scheduler and I/O latency — too short flakes under -race or CI load,
// too long wastes every run forever. Polling encodes the actual
// postcondition: the test proceeds the moment it holds and fails loudly
// (with the caller's description) only when it genuinely never does.
//
// It also holds the byte-golden check the wire-format tests share.
package testutil

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"reflect"
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
