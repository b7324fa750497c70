package serve_test

// Windowed serving end to end, plus WAL-lag load shedding: the freqd
// behaviours this PR adds over a real HTTP loopback. The windowed tests
// pin the query semantics (φ thresholds against the window, not the
// history; recently-hot reported, expired forgotten), the /stats window
// section, and the acceptance criterion — a killed-and-recovered
// windowed daemon re-encodes bit-identically to its durable prefix and
// serves recall 1 at the φ·W operating point.

import (
	"net/http/httptest"
	"testing"
	"time"

	"streamfreq"
	"streamfreq/internal/core"
	"streamfreq/internal/persist"
	"streamfreq/internal/serve"
	"streamfreq/internal/stream"
	"streamfreq/internal/window"
	"streamfreq/internal/zipf"
)

// shiftingStream builds a two-phase workload: background Zipf traffic
// with oldHot taking ~25% of phase one and newHot ~25% of phase two, so
// whole-stream and windowed summaries disagree about what is hot now.
func shiftingStream(t *testing.T, phase1, phase2 int, oldHot, newHot core.Item, seed uint64) []core.Item {
	t.Helper()
	g, err := zipf.NewGenerator(1<<14, 0.9, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]core.Item, 0, phase1+phase2)
	for i := 0; i < phase1; i++ {
		if i%4 == 0 {
			out = append(out, oldHot)
		} else {
			out = append(out, g.Next())
		}
	}
	for i := 0; i < phase2; i++ {
		if i%4 == 0 {
			out = append(out, newHot)
		} else {
			out = append(out, g.Next())
		}
	}
	return out
}

type windowStatsResponse struct {
	N      int64 `json:"n"`
	Window struct {
		Size            int   `json:"size"`
		Blocks          int   `json:"blocks"`
		BlockLen        int   `json:"block_len"`
		WindowLive      int64 `json:"window_live"`
		WindowN         int64 `json:"window_n"`
		Slack           int64 `json:"slack"`
		BoundaryExpired int64 `json:"boundary_expired"`
	} `json:"window"`
}

// TestFreqdWindowedServing: a windowed target behind the stock serving
// stack answers /topk over recent traffic — φ thresholds against the
// window span, yesterday's hot item gone, today's reported — and /stats
// surfaces the window accounting.
func TestFreqdWindowedServing(t *testing.T) {
	const (
		size, blocks, k = 4000, 8, 200
		oldHot, newHot  = core.Item(900001), core.Item(900002)
	)
	win, err := streamfreq.NewWindowed(size, blocks, k)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewConcurrent(win).ServeSnapshots(0)
	srv := serve.NewServer(serve.Options{Target: target, Algo: "SSW"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Phase one fills several windows with oldHot; phase two is more
	// than W + W/B items of newHot traffic, so oldHot is fully expired.
	items := shiftingStream(t, 12_000, size+size/blocks+1000, oldHot, newHot, 0x51D)
	postOK(t, ts.URL+"/ingest", "application/octet-stream", stream.AppendRaw(nil, items))
	postOK(t, ts.URL+"/refresh", "application/json", nil)

	var tr topkResponse
	getJSON(t, ts.URL+"/topk?phi=0.1", &tr)
	if tr.N != size {
		t.Fatalf("/topk windowed denominator = %d, want W=%d", tr.N, size)
	}
	if tr.Threshold != size/10 {
		t.Fatalf("/topk threshold = %d, want φ·W = %d", tr.Threshold, size/10)
	}
	var sawNew, sawOld bool
	for _, ic := range tr.Items {
		switch core.Item(ic.Item) {
		case newHot:
			sawNew = true
		case oldHot:
			sawOld = true
		}
	}
	if !sawNew || sawOld {
		t.Fatalf("windowed /topk sawNew=%v sawOld=%v, want the recent hot item only (items %v)", sawNew, sawOld, tr.Items)
	}

	// The expired item's estimate is bounded by the advertised slack.
	var er struct {
		Estimate int64 `json:"estimate"`
	}
	getJSON(t, ts.URL+"/estimate?item=900001", &er)
	if er.Estimate > win.Slack() {
		t.Fatalf("expired item estimated at %d, above slack %d", er.Estimate, win.Slack())
	}

	var st windowStatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.N != int64(len(items)) {
		t.Fatalf("/stats n = %d, want the whole-stream total %d", st.N, len(items))
	}
	w := st.Window
	if w.Size != size || w.Blocks != blocks || w.BlockLen != size/blocks {
		t.Fatalf("/stats window geometry = %+v, want %d/%d/%d", w, size, blocks, size/blocks)
	}
	if w.WindowN != size || w.WindowLive < size || w.WindowLive > int64(size+size/blocks) {
		t.Fatalf("/stats window accounting = %+v, want window_n=W and live in [W, W+W/B]", w)
	}
	if w.Slack <= 0 || w.BoundaryExpired != w.WindowLive-w.WindowN {
		t.Fatalf("/stats window error accounting inconsistent: %+v", w)
	}
}

// buildWindowedDurable is freqd's -window startup sequence over dir.
func buildWindowedDurable(t *testing.T, dir string, size, blocks, k int) (*core.Concurrent, *persist.Store, persist.RecoveryStats) {
	t.Helper()
	win, err := streamfreq.NewWindowed(size, blocks, k)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewConcurrent(win)
	store, err := persist.Open(persist.Options{
		Dir:    dir,
		Algo:   "SSW",
		Fsync:  persist.FsyncAlways,
		Decode: streamfreq.Decode,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := store.Recover(target)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	target.PersistTo(store)
	target.ServeSnapshots(5 * time.Millisecond)
	return target, store, stats
}

func encodeState(t *testing.T, s core.Snapshotter) []byte {
	t.Helper()
	blob, err := core.EncodeSummary(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestFreqdWindowedDurableRestart is the acceptance e2e: a windowed
// freqd ingests over the wire with a checkpoint partway, dies without
// warning, recovers, re-encodes bit-identically to the durable prefix
// (checkpoint holds only live blocks; WAL replay reconstructs block
// boundaries from the logged batch records), and serves recall 1 at the
// φ·W operating point against exact truth over the final window.
func TestFreqdWindowedDurableRestart(t *testing.T) {
	const (
		phi             = 0.005
		size, blocks, k = 8192, 8, 201
		batch           = core.DefaultBatchSize
		streamN         = 16 * batch // 4096-aligned halves keep wire and replay batch boundaries identical
	)
	dir := t.TempDir()
	items := shiftingStream(t, streamN/2, streamN/2, core.Item(700001), core.Item(700002), 0xD00D)

	target, store, _ := buildWindowedDurable(t, dir, size, blocks, k)
	srv := serve.NewServer(serve.Options{Target: target, Algo: "SSW", Store: store})
	ts := httptest.NewServer(srv.Handler())
	postOK(t, ts.URL+"/ingest", "application/octet-stream", stream.AppendRaw(nil, items[:streamN/2]))
	postOK(t, ts.URL+"/checkpoint", "application/json", nil)
	postOK(t, ts.URL+"/ingest", "application/octet-stream", stream.AppendRaw(nil, items[streamN/2:]))
	ts.Close()
	// Kill -9: no Close, no final checkpoint.

	target2, store2, rstats := buildWindowedDurable(t, dir, size, blocks, k)
	defer store2.Close()
	if rstats.RecoveredN != streamN || rstats.CheckpointN == 0 || rstats.ReplayedRecords == 0 {
		t.Fatalf("recovery did not exercise checkpoint+WAL: %+v", rstats)
	}

	// Bit-identical to a fresh windowed summary fed the durable prefix
	// with the original (wire-ingest) batch boundaries.
	fresh, err := streamfreq.NewWindowed(size, blocks, k)
	if err != nil {
		t.Fatal(err)
	}
	streamfreq.UpdateBatches(fresh, items, batch)
	got := encodeState(t, target2)
	want, err := core.EncodeSummary(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("recovered windowed state is not bit-identical to the durable prefix (%d vs %d bytes)", len(got), len(want))
	}

	// Recall 1 at φ·W over the final window.
	srv2 := serve.NewServer(serve.Options{Target: target2, Algo: "SSW", Store: store2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	postOK(t, ts2.URL+"/refresh", "application/json", nil)
	var tr topkResponse
	getJSON(t, ts2.URL+"/topk?phi=0.005", &tr)
	if tr.N != size {
		t.Fatalf("/topk after restart: windowed n = %d, want %d", tr.N, size)
	}
	truth := map[core.Item]int64{}
	for _, it := range items[len(items)-size:] {
		truth[it]++
	}
	reported := map[core.Item]bool{}
	for _, it := range tr.Items {
		reported[core.Item(it.Item)] = true
	}
	span := float64(size)
	threshold := int64(phi * span)
	for it, tru := range truth {
		if tru >= threshold && !reported[it] {
			t.Fatalf("item %d with %d occurrences in the final window ≥ φ·W=%d missing from /topk", it, tru, threshold)
		}
	}

	// Mode exclusivity: the windowed data directory never restores into
	// a flat summary (and vice versa) — the algo label fails fast.
	flat := core.NewConcurrent(streamfreq.MustNew("SSH", phi, 1))
	storeX, err := persist.Open(persist.Options{Dir: dir, Algo: "SSH", Fsync: persist.FsyncAlways, Decode: streamfreq.Decode})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storeX.Recover(flat); err == nil {
		t.Fatal("flat SSH recovery over a windowed data directory succeeded")
	}
}

// TestIngestShedOnWALLag: with -max-lag set, ingest is shed with 429 +
// Retry-After once the unsynced WAL lag passes the bound — the
// throttled-writer scenario, reproduced deterministically with fsync
// policy "never", under which nothing becomes durable until a rotation
// (here: a checkpoint) seals the segment. The global and the tenant
// ingest route shed alike.
func TestIngestShedOnWALLag(t *testing.T) {
	const maxLag = 100
	for _, route := range ingestRoutes {
		t.Run(route.name, func(t *testing.T) {
			// FsyncNever is the throttled writer: the disk never catches
			// up on its own.
			opts, target, store := durableNode(t, t.TempDir(), route.tenants, persist.FsyncNever)
			opts.MaxLag = maxLag
			ts := httptest.NewServer(serve.NewServer(opts).Handler())
			defer ts.Close()
			defer store.Close()
			ingest := ts.URL + route.prefix + "/ingest"

			// First write is admitted (lag 0 at the gate) and opens the lag.
			postOK(t, ingest, "application/octet-stream", stream.AppendRaw(nil, zipf.Sequential(500)))

			resp := post(t, ingest, "application/octet-stream", stream.AppendRaw(nil, zipf.Sequential(10)))
			defer resp.Body.Close()
			if resp.StatusCode != 429 {
				t.Fatalf("ingest past -max-lag: %s, want 429", resp.Status)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 response missing Retry-After")
			}

			// The pressure is observable.
			var st struct {
				WAL struct {
					Lag    int64 `json:"lag"`
					MaxLag int64 `json:"max_lag"`
				} `json:"wal"`
				Counters map[string]int64 `json:"counters"`
			}
			getJSON(t, ts.URL+"/stats", &st)
			if st.WAL.Lag < 500 || st.WAL.MaxLag != maxLag {
				t.Fatalf("/stats wal lag/max_lag = %d/%d, want ≥500/%d", st.WAL.Lag, st.WAL.MaxLag, maxLag)
			}
			if st.Counters["ingest.shed"] == 0 {
				t.Fatal("/stats counters missing ingest.shed")
			}

			// Once the log drains (a checkpoint seals the segment, making
			// the tail durable), ingest is admitted again — shedding is
			// backpressure, not a latch.
			if _, err := store.Checkpoint(target); err != nil {
				t.Fatal(err)
			}
			postOK(t, ingest, "application/octet-stream", stream.AppendRaw(nil, zipf.Sequential(10)))
		})
	}
}

// Compile-time: a windowed snapshot satisfies the serving-layer window
// surfaces the handlers dispatch on.
var _ interface {
	WindowN() int64
	WindowStats() window.Stats
} = (*window.Windowed)(nil)
