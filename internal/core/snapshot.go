package core

import (
	"strconv"
	"time"
)

// Snapshotter is implemented by summaries that can produce an immutable
// point-in-time copy of themselves. Snapshot returns an independent deep
// copy: subsequent updates to the parent never change the snapshot, and
// updates to the snapshot never change the parent. The copy shares only
// state that is immutable after construction (hash families, seeds), so
// taking a snapshot costs one allocation-and-copy of the summary's
// counters — O(k) for the counter algorithms, O(d·w) for the sketches —
// and never blocks on anything.
//
// Snapshots are the serving primitive of this repository: the
// concurrency plane (Concurrent, Pipelined) answers Query/Estimate from a
// periodically refreshed snapshot so readers never wait on the ingest
// lock, and a snapshot can be serialized (MarshalBinary) or merged
// elsewhere while the parent keeps ingesting.
//
// Every algorithm in the registry implements Snapshotter via a native
// typed Clone method; the registry-wide fidelity property test
// (snapshot_test.go in the root package) pins that a snapshot answers
// queries bit-identically to a fresh summary fed the same stream prefix.
type Snapshotter interface {
	// Snapshot returns an independent deep copy of the summary's current
	// state.
	Snapshot() Summary
}

// ReadView is the read-only query surface of a serving snapshot. A view
// is immutable: every call answers from the same epoch, so a caller that
// needs an internally consistent multi-read sequence (compute a
// threshold from N, then Query at it) pins one view and issues all reads
// against it. Any Summary trivially satisfies ReadView; the concurrency
// plane additionally exposes its current epoch through ServingView.
type ReadView interface {
	// N returns the view's stream length.
	N() int64
	// Estimate returns the view's point estimate for x.
	Estimate(x Item) int64
	// Query returns the view's items at or above threshold, descending.
	Query(threshold int64) []ItemCount
}

// EmptyView is the ReadView of a stream that has ingested nothing.
type EmptyView struct{}

func (EmptyView) N() int64                { return 0 }
func (EmptyView) Estimate(Item) int64     { return 0 }
func (EmptyView) Query(int64) []ItemCount { return nil }

// SnapshotStats describes the serving snapshot of a wrapper with
// snapshot reads enabled (Concurrent.ServeSnapshots,
// Pipelined.ServeSnapshots): the snapshot section of freqd's stats
// document (see obs.Registry.Stats for the tags).
type SnapshotStats struct {
	// Serving reports whether snapshot serving is enabled.
	Serving bool `json:"serving"`
	// AsOfN is the stream length the serving snapshot reflects.
	AsOfN int64 `json:"as_of_n" metric:"freq_snapshot_as_of_n" help:"Stream position of the serving snapshot."`
	// Age is the time since the serving snapshot was taken.
	Age Millis `json:"age_ms" metric:"freq_snapshot_age_seconds" help:"Age of the serving snapshot."`
	// Refreshes counts how many snapshots have been taken so far.
	Refreshes int64 `json:"refreshes" metric:"freq_snapshot_refreshes_total" help:"Serving snapshot refreshes."`
	// MaxStale is the configured staleness bound.
	MaxStale Millis `json:"max_stale_ms"`
}

// Millis is a duration in a stats document: whole milliseconds in JSON
// (a /stats "_ms" field) and, through its Seconds method, seconds in a
// scrape (obs.Registry.Stats).
type Millis time.Duration

// MarshalJSON writes m as an integer count of milliseconds.
func (m Millis) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, time.Duration(m).Milliseconds(), 10), nil
}

// Seconds returns m in seconds.
func (m Millis) Seconds() float64 { return time.Duration(m).Seconds() }

// mustSnapshot clones s, panicking with a clear message when s does not
// implement Snapshotter — enabling snapshot serving over a summary that
// cannot be cloned is a configuration error, like a non-power-of-two
// shard count.
func mustSnapshot(s Summary) Summary {
	sn, ok := s.(Snapshotter)
	if !ok {
		panic("core: " + s.Name() + " does not implement Snapshotter")
	}
	return sn.Snapshot()
}
