package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"streamfreq/internal/obs"
)

// The load generator: one process, two lanes, one connection per lane.
// Lane 0 ingests, lane 1 queries. In the open loop every request has a
// due time on one schedule and is timed from it, so a stall is charged
// to every request it delays (no coordinated omission); in the closed
// loop each lane sends its next request as soon as the reply arrives.

const (
	laneIngest = 0
	laneQuery  = 1
)

// requestTimeout bounds one request; a timeout counts as a failure.
const requestTimeout = 10 * time.Second

type phase int

const (
	phaseWarm phase = iota
	phaseOpen
	phaseClosed
)

// sample is one sent request.
type sample struct {
	req    *request
	phase  phase
	sched  bool          // sent on the open-loop schedule
	due    time.Time     // scheduled send time (the send time when unscheduled)
	sent   time.Time     // request handed to the connection
	done   time.Time     // reply fully read
	late   time.Duration // scheduled: send time minus when the lane could first have sent it
	status int           // HTTP status; 0 for a transport error or timeout
	n      int64         // the reply's "n", -1 when it has none
	trace  string        // X-Freq-Trace sent, "" when untraced
}

func (s *sample) ok() bool { return s.status >= 200 && s.status < 300 }

// latency is measured from the due time, not the send time.
func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

// lane is one connection's worth of requests. Only its own goroutine
// touches it while a phase runs.
type lane struct {
	client *http.Client
	tr     *http.Transport
	bases  []string
	seq    []request
	next   int
	rec    *recorder // records a client span per request when tracing; may be nil
}

func newLane(bases []string, seq []request) *lane {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		// A lane that writes to several nodes reconnects per request, so
		// it never holds more than one connection.
		DisableKeepAlives: len(bases) > 1,
	}
	return &lane{client: &http.Client{Transport: tr, Timeout: requestTimeout}, tr: tr, bases: bases, seq: seq}
}

// pair returns two lanes over l's requests for a closed-loop phase that
// puts one class on both connections: l and a copy half a sequence
// ahead, or, when l spreads its requests over several hosts, one
// keep-alive lane per host.
func (l *lane) pair() []*lane {
	a, b := l, newLane(l.bases, l.seq)
	if len(l.bases) > 1 {
		a, b = newLane(l.bases[:1], l.seq), newLane(l.bases[1:2], l.seq)
		a.next, a.rec = l.next, l.rec
	}
	b.next, b.rec = l.next+len(l.seq)/2, l.rec
	return []*lane{a, b}
}

func closeIdle(lanes []*lane) {
	for _, l := range lanes {
		l.tr.CloseIdleConnections()
	}
}

// take returns the lane's next request, cycling through its sequence.
func (l *lane) take() *request {
	r := &l.seq[l.next%len(l.seq)]
	l.next++
	return r
}

// do sends r and returns its sample with due and phase unset.
func (l *lane) do(in *inputs, r *request) sample {
	s := sample{req: r, n: -1}
	var body io.Reader
	method := http.MethodGet
	if r.body >= 0 {
		method = http.MethodPost
		body = bytes.NewReader(in.bodies[r.body].data)
	}
	req, err := http.NewRequest(method, l.bases[r.host%len(l.bases)]+r.path, body)
	if err != nil {
		panic(err) // paths are generated, never malformed
	}
	if r.body >= 0 {
		req.Header.Set("Content-Type", in.ctype)
	}
	if l.rec.tracing() {
		s.trace = l.rec.newTraceID()
		req.Header.Set(obs.TraceHeader, s.trace)
	}
	s.sent = time.Now()
	resp, err := l.client.Do(req)
	if err == nil {
		var data []byte
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			s.status = resp.StatusCode
			if s.ok() {
				s.n = replyN(data)
			}
		}
	}
	s.done = time.Now()
	if s.trace != "" {
		kind := "client.query"
		if r.body >= 0 {
			kind = "client.ingest"
		}
		l.rec.add(span{Kind: kind, Node: "loadgen", Trace: s.trace, Route: r.route, Start: l.rec.at(s.sent), End: l.rec.at(s.done), Status: s.status})
	}
	return s
}

// replyN returns the top-level "n" of a JSON reply, or -1. It scans for
// the key instead of decoding: a top-k or hhh reply is kilobytes of rows
// the generator has no use for, and decoding them would steal the CPU
// the schedule needs. No row field is named "n".
func replyN(data []byte) int64 {
	i := bytes.Index(data, []byte(`"n":`))
	if i < 0 {
		return -1
	}
	n, err := strconv.ParseInt(string(numberPrefix(data[i+4:])), 10, 64)
	if err != nil {
		return -1
	}
	return n
}

func numberPrefix(b []byte) []byte {
	j := 0
	for j < len(b) && (b[j] == '-' || b[j] >= '0' && b[j] <= '9') {
		j++
	}
	return b[:j]
}

// event is one scheduled send: its lane and due offset from the start.
type event struct {
	due  time.Duration
	lane int
}

// schedule merges each lane's fixed-rate arrivals over dur into one
// timeline ordered by due time. A rate of 0 leaves the lane idle.
func schedule(rates []float64, dur time.Duration) []event {
	var out []event
	for ln, rate := range rates {
		if rate <= 0 {
			continue
		}
		step := time.Duration(float64(time.Second) / rate)
		for due := time.Duration(0); due < dur; due += step {
			out = append(out, event{due: due, lane: ln})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// runOpen sends every scheduled event at start+due on its lane. A lane
// has one connection, so a request falling due while the previous one
// is out waits for it, and its latency still counts from the due time.
func runOpen(lanes []*lane, in *inputs, sched []event, start time.Time, ph phase) []sample {
	out := make([][]sample, len(lanes))
	var wg sync.WaitGroup
	for ln := range lanes {
		wg.Add(1)
		go func(ln int) {
			defer wg.Done()
			// sleepUntil blocks this OS thread, not just the goroutine.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			l := lanes[ln]
			var free time.Time // when the lane's previous request finished
			for _, ev := range sched {
				if ev.lane != ln {
					continue
				}
				due := start.Add(ev.due)
				sleepUntil(due)
				s := l.do(in, l.take())
				s.phase, s.sched, s.due = ph, true, due
				s.late = s.sent.Sub(laterOf(due, free))
				free = s.done
				out[ln] = append(out[ln], s)
			}
		}(ln)
	}
	wg.Wait()
	return concat(out)
}

// runClosed keeps every lane busy until the deadline.
func runClosed(lanes []*lane, in *inputs, until time.Time, ph phase) []sample {
	out := make([][]sample, len(lanes))
	var wg sync.WaitGroup
	for ln := range lanes {
		wg.Add(1)
		go func(ln int) {
			defer wg.Done()
			l := lanes[ln]
			for time.Now().Before(until) {
				s := l.do(in, l.take())
				s.phase, s.due = ph, s.sent
				out[ln] = append(out[ln], s)
			}
		}(ln)
	}
	wg.Wait()
	return concat(out)
}

// sendAll sends reqs one after another on l, for set-up traffic.
func sendAll(l *lane, in *inputs, reqs []request, ph phase) []sample {
	out := make([]sample, 0, len(reqs))
	for i := range reqs {
		s := l.do(in, &reqs[i])
		s.phase, s.due = ph, s.sent
		out = append(out, s)
	}
	return out
}

// sleepUntil sleeps the calling thread until t with the kernel's timer
// precision. The runtime's timers wake an otherwise idle process with
// millisecond granularity, which would make most sends up to 1 ms late.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func concat(parts [][]sample) []sample {
	var out []sample
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
