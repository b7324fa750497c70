package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A stall on one request must be charged to every request scheduled
// behind it: latency counts from the due time, not from when the
// generator finally got to send.
func TestOpenLoopChargesStallsFromTheSchedule(t *testing.T) {
	const stall = 200 * time.Millisecond
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 3 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"n":7}`))
	}))
	defer srv.Close()

	in := &inputs{query: []request{{route: "topk", path: "/", body: -1}}}
	l := newLane([]string{srv.URL}, in.query)
	defer closeIdle([]*lane{l})
	sched := schedule([]float64{0, 100}, 800*time.Millisecond) // every 10 ms on the query lane
	samples := runOpen([]*lane{newLane(nil, nil), l}, in, sched, time.Now(), phaseOpen)
	if len(samples) != 80 {
		t.Fatalf("sent %d requests, want 80", len(samples))
	}
	// Requests 4.. were due 10, 20, ... ms after the stalled one started
	// and waited for it on the lane's single connection.
	for i := 3; i < 10; i++ {
		s := samples[i]
		waited := s.sent.Sub(s.due)
		if lat := s.latency(); lat < waited || lat < stall-time.Duration(i-2)*10*time.Millisecond-5*time.Millisecond {
			t.Errorf("request %d: latency %v, sent %v after its due time; the stall was not charged", i, lat, waited)
		}
		if s.late > 2*time.Millisecond {
			t.Errorf("request %d: generator lateness %v; waiting for the connection is not lateness", i, s.late)
		}
		if s.n != 7 || !s.ok() {
			t.Errorf("request %d: status %d n %d", i, s.status, s.n)
		}
	}
	// Well after the stall the lane has caught up again.
	if last := samples[len(samples)-1]; last.latency() > 50*time.Millisecond {
		t.Errorf("last request latency %v: the backlog never drained", last.latency())
	}
}

func TestScheduleMergesLanesInDueOrder(t *testing.T) {
	sched := schedule([]float64{2, 4}, time.Second)
	if len(sched) != 6 {
		t.Fatalf("%d events, want 2+4", len(sched))
	}
	for i := 1; i < len(sched); i++ {
		if sched[i].due < sched[i-1].due {
			t.Fatalf("event %d due %v before event %d at %v", i, sched[i].due, i-1, sched[i-1].due)
		}
	}
}

func TestReplyN(t *testing.T) {
	for body, want := range map[string]int64{
		`{"items":[{"item":5,"count":9}],"n":1234,"threshold":1}`: 1234,
		`{"ingested":32,"n":64}`:                                  64,
		`{"estimate":3,"item":5}`:                                 -1,
		`{"n":-}`:                                                 -1,
	} {
		if got := replyN([]byte(body)); got != want {
			t.Errorf("replyN(%s) = %d, want %d", body, got, want)
		}
	}
}
