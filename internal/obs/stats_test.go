package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"streamfreq/internal/core"
)

type WALDoc struct {
	Synced  int64         `json:"synced" metric:"test_wal_synced" help:"Synced position."`
	Fsyncs  int64         `json:"fsyncs" metric:"test_wal_fsyncs_total" help:"Fsyncs issued."`
	Elapsed time.Duration `json:"-" metric:"test_wal_recovery_seconds" help:"Recovery time."`
}

type nodeSection struct {
	WALDoc
	Bound int64 `json:"bound" metric:"test_wal_bound" help:"Configured bound."`
}

type pipeDoc struct {
	Staged int64 `json:"staged" metric:"test_pipe_staged" help:"Staged items."`
}

type testDoc struct {
	N      int64        `json:"n" metric:"test_n" help:"Stream position."`
	Uptime core.Millis  `json:"uptime_ms" metric:"test_uptime_seconds" help:"Uptime."`
	Ratio  float64      `json:"ratio" metric:"test_ratio" help:"A ratio."`
	Label  string       `json:"label"`
	Pipe   *pipeDoc     `json:"pipe,omitempty"`
	Window *pipeDoc     `json:"window,omitempty"`
	WAL    *nodeSection `json:"wal,omitempty"`
}

// scrape renders r and parses the result.
func scrape(t *testing.T, r *Registry) map[string]*ParsedFamily {
	t.Helper()
	text := r.Render()
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	return fams
}

func TestStatsDocumentSeries(t *testing.T) {
	r := NewRegistry()
	doc := testDoc{N: 7, Uptime: core.Millis(1500 * time.Millisecond), Ratio: 0.5, Label: "x",
		Pipe: &pipeDoc{Staged: 3}, WAL: &nodeSection{WALDoc: WALDoc{Synced: 5, Fsyncs: 2, Elapsed: 250 * time.Millisecond}, Bound: 9}}
	r.Stats(func() any { return doc })
	fams := scrape(t, r)
	for name, want := range map[string]struct {
		typ string
		v   float64
	}{
		"test_n":                    {"gauge", 7},
		"test_uptime_seconds":       {"gauge", 1.5},
		"test_ratio":                {"gauge", 0.5},
		"test_pipe_staged":          {"gauge", 3},
		"test_wal_synced":           {"gauge", 5},
		"test_wal_fsyncs_total":     {"counter", 2},
		"test_wal_recovery_seconds": {"gauge", 0.25},
		"test_wal_bound":            {"gauge", 9},
	} {
		fam := fams[name]
		if fam == nil || fam.Type != want.typ || len(fam.Series) != 1 || fam.Series[0].Value != want.v {
			t.Errorf("%s = %+v, want one %s sample of %v", name, fam, want.typ, want.v)
		}
	}
	if fam := fams["test_n"]; fam == nil || fam.Help != "Stream position." {
		t.Errorf("test_n HELP = %+v", fam)
	}
	// A nil section is not registered; one that turns nil leaves the
	// scrape.
	if _, ok := fams["test_window_staged"]; ok || len(fams) != 8 {
		t.Errorf("scrape has %d families, want the 8 tagged fields of non-nil sections", len(fams))
	}
	doc.Pipe = nil
	if fam := scrape(t, r)["test_pipe_staged"]; fam != nil && len(fam.Series) != 0 {
		t.Errorf("a nil section still renders: %+v", fam)
	}

	// The JSON side: Millis in whole milliseconds.
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"uptime_ms":1500`) {
		t.Errorf("JSON %s: uptime_ms is not whole milliseconds", raw)
	}
}

// TestStatsSectionOwnedElsewhere: a section whose series another Stats
// registration already feeds is skipped, its series registered once;
// the document's own fields beside it still register.
func TestStatsSectionOwnedElsewhere(t *testing.T) {
	r := NewRegistry()
	wal := WALDoc{Synced: 5}
	r.Stats(func() any { return &wal })
	r.Stats(func() any { return &testDoc{N: 1, WAL: &nodeSection{WALDoc: WALDoc{Synced: 99}, Bound: 4}} })
	fams := scrape(t, r)
	if fam := fams["test_wal_synced"]; fam == nil || len(fam.Series) != 1 || fam.Series[0].Value != 5 {
		t.Errorf("test_wal_synced = %+v, want the owning registration's 5", fam)
	}
	if fam := fams["test_wal_bound"]; fam == nil || fam.Series[0].Value != 4 {
		t.Errorf("test_wal_bound = %+v, want 4", fam)
	}
}

func TestStatsReadOncePerRender(t *testing.T) {
	r := NewRegistry()
	reads := 0
	r.Stats(func() any {
		reads++
		return testDoc{N: int64(reads), Pipe: &pipeDoc{Staged: int64(reads)}, WAL: &nodeSection{}}
	})
	for i := 1; i <= 3; i++ {
		before := reads
		fams := scrape(t, r)
		if reads != before+1 {
			t.Fatalf("render %d read the document %d times, want once", i, reads-before)
		}
		if n, staged := fams["test_n"].Series[0].Value, fams["test_pipe_staged"].Series[0].Value; n != staged {
			t.Fatalf("render %d: test_n %v and test_pipe_staged %v come from different reads", i, n, staged)
		}
	}
}

func TestStatsRejectsDuplicatesAndBadKinds(t *testing.T) {
	for name, register := range map[string]func(r *Registry){
		"name taken": func(r *Registry) {
			r.Gauge("test_n", "Hand-registered.")
			r.Stats(func() any { return testDoc{} })
		},
		"unsupported kind": func(r *Registry) {
			r.Stats(func() any {
				return struct {
					S string `metric:"test_s"`
				}{}
			})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Stats did not panic", name)
				}
			}()
			register(NewRegistry())
		}()
	}
}
