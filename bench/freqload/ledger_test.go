package main

import (
	"math"
	"reflect"
	"testing"
)

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name     string
		parent   ivl
		children []ivl
		want     int64
	}{
		{"no children", ivl{0, 100}, nil, 100},
		{"disjoint", ivl{0, 100}, []ivl{{10, 20}, {50, 80}}, 60},
		{"overlapping children count once", ivl{0, 100}, []ivl{{10, 40}, {30, 60}}, 50},
		{"parallel children", ivl{0, 100}, []ivl{{10, 90}, {10, 90}}, 20},
		{"children clipped to the parent", ivl{0, 100}, []ivl{{-50, 10}, {95, 300}}, 85},
		{"child outside", ivl{0, 100}, []ivl{{200, 300}}, 100},
		{"nested children", ivl{0, 100}, []ivl{{10, 90}, {20, 30}}, 20},
	} {
		if got := selfTime(tc.parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestStageTimesPartitionTheClient(t *testing.T) {
	client := ivl{0, 1000}
	router := []ivl{{50, 950}}
	forwards := []ivl{{100, 500}, {120, 480}, {520, 900}} // two shards in parallel, then one
	nodes := []ivl{{150, 450}, {160, 400}, {550, 850}}
	applies := []ivl{{200, 300}, {600, 700}}
	appends := []ivl{{210, 220}, {610, 640}, {2000, 2100}} // the last is outside every apply
	got := stageTimes(client, [][]ivl{router, forwards, nodes, applies, appends})
	want := []int64{
		100,             // client: outside the router span
		900 - 380 - 400, // router self: 900 minus forwards' cover
		780 - 300 - 300, // forward: cover of forwards minus nodes'
		600 - 200,       // serve self
		200 - 40,        // core self
		40,              // persist
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stages %v, want %v", got, want)
	}
	var sum int64
	for _, s := range got {
		sum += s
	}
	if sum != 1000 {
		t.Errorf("stages sum to %d, want the client's 1000", sum)
	}
}

func TestJoinIngestLinksTheLayers(t *testing.T) {
	spans := []span{
		{Kind: "client.ingest", Node: "loadgen", Trace: "T", Start: 0, End: 1000},
		{Kind: "router.http", Node: "freqrouter", Trace: "T", Route: "ingest", Start: 100, End: 900},
		{Kind: "router.forward", Node: "freqrouter", Trace: "T", Route: "ingest", Peer: "freqd-a", Start: 200, End: 800},
		{Kind: "serve.http", Node: "freqd-a", Trace: "T", Route: "ingest", Start: 300, End: 700},
		{Kind: "core.apply", Node: "freqd-a", Start: 400, End: 600},
		{Kind: "persist.append", Node: "freqd-a", Start: 450, End: 500},
		{Kind: "core.apply", Node: "freqd-b", Start: 400, End: 600},                  // another node: not this request's
		{Kind: "client.ingest", Node: "loadgen", Trace: "U", Start: 2000, End: 2100}, // never reached a server
	}
	x := newSpanIndex(spans)
	l := joinIngest(x, true, true)
	if l.joined != 1 {
		t.Fatalf("joined %d requests, want 1", l.joined)
	}
	wantStages := []string{"client", "router", "forward", "serve", "core", "persist"}
	if !reflect.DeepEqual(l.stages, wantStages) {
		t.Fatalf("stages %v, want %v", l.stages, wantStages)
	}
	for k, want := range []float64{200e-6, 200e-6, 200e-6, 200e-6, 150e-6, 50e-6} {
		if got := l.perStage[k][0]; got != want {
			t.Errorf("stage %s: %g ms, want %g", l.stages[k], got, want)
		}
	}
	if got := l.stageSum(); math.Abs(got-1000e-6) > 1e-15 {
		t.Errorf("stage sum %g ms, want the client's 0.001", got)
	}
	for i, parent := range []int{0, 1, 2, 3, 4, 5} {
		if x.spans[i].Parent != parent {
			t.Errorf("span %d (%s): parent %d, want %d", i+1, x.spans[i].Kind, x.spans[i].Parent, parent)
		}
	}
	if x.spans[6].Parent != 0 {
		t.Errorf("another node's apply was joined to the request")
	}
}

func TestPullRoundsSelfTime(t *testing.T) {
	x := newSpanIndex([]span{
		{Kind: "cluster.round", Node: "freqmerge", Trace: "R", Start: 0, End: 100},
		{Kind: "cluster.pull", Node: "freqmerge", Trace: "R", Route: "summary", Start: 5, End: 60},
		{Kind: "cluster.pull", Node: "freqmerge", Trace: "R", Route: "summary", Start: 10, End: 70},
		{Kind: "cluster.decode", Node: "freqmerge", Start: 60, End: 75},
	})
	if got := pullRounds(x); len(got) != 1 || got[0] != 30e-6 {
		t.Errorf("round self times %v ms, want [3e-05]", got)
	}
}
