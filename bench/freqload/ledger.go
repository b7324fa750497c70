package main

import (
	"sort"
)

// Span arithmetic and the per-layer ledger of the traced run.

// ivl is a time interval in recorder nanoseconds.
type ivl struct{ lo, hi int64 }

func spanIvl(s *span) ivl { return ivl{s.Start, s.End} }

// union returns the sorted, disjoint cover of ivs.
func union(ivs []ivl) []ivl {
	s := append([]ivl(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []ivl
	for _, v := range s {
		if v.hi <= v.lo {
			continue
		}
		if n := len(out); n > 0 && v.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, v.hi)
			continue
		}
		out = append(out, v)
	}
	return out
}

// intersect returns the parts of a that lie inside b; both must be
// sorted and disjoint, as union returns them.
func intersect(a, b []ivl) []ivl {
	var out []ivl
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if lo < hi {
			out = append(out, ivl{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

func length(ivs []ivl) int64 {
	var n int64
	for _, v := range ivs {
		n += v.hi - v.lo
	}
	return n
}

// selfTime is a span's duration minus the part of it its children
// cover; children may overlap each other or stick out of the parent.
func selfTime(parent ivl, children []ivl) int64 {
	return parent.hi - parent.lo - length(intersect(union(children), []ivl{parent}))
}

// stageTimes splits a request's client interval into the time each
// layer was the deepest one working on it. levels[k] holds the spans of
// the k-th layer down; each is clipped to the cover of the layer above,
// so the len(levels)+1 stages sum to the client interval exactly: stage
// 0 is the client's own share (connection and transfer), stage k the
// self time of layer k.
func stageTimes(client ivl, levels [][]ivl) []int64 {
	cur := []ivl{client}
	out := make([]int64, len(levels)+1)
	for k, lv := range levels {
		next := intersect(union(lv), cur)
		out[k] = length(cur) - length(next)
		cur = next
	}
	out[len(levels)] = length(cur)
	return out
}

// spanIndex finds spans by trace ID and, per (kind, node), by time.
type spanIndex struct {
	spans   []span
	byTrace map[string][]int
	byNode  map[[2]string][]int // sorted by start
}

func newSpanIndex(spans []span) *spanIndex {
	x := &spanIndex{spans: spans, byTrace: map[string][]int{}, byNode: map[[2]string][]int{}}
	for i := range spans {
		s := &spans[i]
		s.ID = i + 1
		if s.Trace != "" {
			x.byTrace[s.Trace] = append(x.byTrace[s.Trace], i)
		}
		k := [2]string{s.Kind, s.Node}
		x.byNode[k] = append(x.byNode[k], i)
	}
	for _, ids := range x.byNode {
		sort.Slice(ids, func(a, b int) bool { return spans[ids[a]].Start < spans[ids[b]].Start })
	}
	return x
}

// traced returns the spans of kind (and route, unless "") in trace.
func (x *spanIndex) traced(trace, kind, route string) []*span {
	var out []*span
	for _, i := range x.byTrace[trace] {
		if s := &x.spans[i]; s.Kind == kind && (route == "" || s.Route == route) {
			out = append(out, s)
		}
	}
	return out
}

// within returns the spans of kind on node that lie inside parent, and
// records parent as their cause.
func (x *spanIndex) within(kind, node string, parent *span) []*span {
	ids := x.byNode[[2]string{kind, node}]
	i := sort.Search(len(ids), func(i int) bool { return x.spans[ids[i]].Start >= parent.Start })
	var out []*span
	for ; i < len(ids) && x.spans[ids[i]].Start < parent.End; i++ {
		s := &x.spans[ids[i]]
		if s.End <= parent.End {
			s.Parent = parent.ID
			out = append(out, s)
		}
	}
	return out
}

// all returns every span of kind (any node), optionally of one route.
func (x *spanIndex) all(kind, route string) []*span {
	var out []*span
	for i := range x.spans {
		if s := &x.spans[i]; s.Kind == kind && (route == "" || s.Route == route) {
			out = append(out, s)
		}
	}
	return out
}

func ivls(spans []*span) []ivl {
	out := make([]ivl, len(spans))
	for i, s := range spans {
		out[i] = spanIvl(s)
	}
	return out
}

func durationsMS(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

func parentOf(children []*span, parent *span) {
	for _, c := range children {
		c.Parent = parent.ID
	}
}

// ingestLedger joins every traced client ingest request to the server
// spans that served it and splits its time into stages. It returns the
// stage names, the per-request stage times in ms of the requests it
// could join, and the serve and core self times it met on the way.
type ingestLedger struct {
	stages    []string
	perStage  [][]float64 // [stage][request]
	joined    int
	routerOwn []float64 // router self time per request
	serveOwn  []float64 // serve self time per node ingest span
	applyOwn  []float64 // core self time per apply span
}

func joinIngest(x *spanIndex, hasRouter, hasApply bool) *ingestLedger {
	l := &ingestLedger{stages: []string{"client"}}
	if hasRouter {
		l.stages = append(l.stages, "router", "forward")
	}
	l.stages = append(l.stages, "serve")
	if hasApply {
		l.stages = append(l.stages, "core")
	}
	l.stages = append(l.stages, "persist")
	l.perStage = make([][]float64, len(l.stages))

	for _, c := range x.all("client.ingest", "") {
		var levels [][]ivl
		var nodeSpans []*span
		if hasRouter {
			rs := x.traced(c.Trace, "router.http", "ingest")
			fs := x.traced(c.Trace, "router.forward", "ingest")
			nodeSpans = x.traced(c.Trace, "serve.http", "ingest")
			if len(rs) != 1 || len(fs) == 0 || len(nodeSpans) == 0 {
				continue
			}
			parentOf(rs, c)
			parentOf(fs, rs[0])
			for _, h := range nodeSpans {
				for _, f := range fs {
					if f.Peer == h.Node {
						h.Parent = f.ID
					}
				}
			}
			l.routerOwn = append(l.routerOwn, float64(selfTime(spanIvl(rs[0]), ivls(fs)))/1e6)
			levels = append(levels, ivls(rs), ivls(fs))
		} else {
			nodeSpans = x.traced(c.Trace, "serve.http", "ingest")
			if len(nodeSpans) == 0 {
				continue
			}
			parentOf(nodeSpans, c)
		}
		var applies, appends []*span
		for _, h := range nodeSpans {
			if !hasApply {
				ps := x.within("persist.append", h.Node, h)
				appends = append(appends, ps...)
				l.serveOwn = append(l.serveOwn, float64(selfTime(spanIvl(h), ivls(ps)))/1e6)
				continue
			}
			as := x.within("core.apply", h.Node, h)
			applies = append(applies, as...)
			l.serveOwn = append(l.serveOwn, float64(selfTime(spanIvl(h), ivls(as)))/1e6)
			for _, a := range as {
				ps := x.within("persist.append", a.Node, a)
				appends = append(appends, ps...)
				l.applyOwn = append(l.applyOwn, float64(selfTime(spanIvl(a), ivls(ps)))/1e6)
			}
		}
		levels = append(levels, ivls(nodeSpans))
		if hasApply {
			levels = append(levels, ivls(applies))
		}
		levels = append(levels, ivls(appends))
		for k, t := range stageTimes(spanIvl(c), levels) {
			l.perStage[k] = append(l.perStage[k], float64(t)/1e6)
		}
		l.joined++
	}
	return l
}

// stageSum is the sum of the stages' mean times, in ms.
func (l *ingestLedger) stageSum() float64 {
	var sum float64
	for _, ts := range l.perStage {
		sum += mean(ts)
	}
	return sum
}

// pullRounds returns the coordinator's self time per pull round: the
// round's span minus its pulls and decodes.
func pullRounds(x *spanIndex) []float64 {
	var out []float64
	for _, r := range x.all("cluster.round", "") {
		children := x.traced(r.Trace, "cluster.pull", "")
		parentOf(children, r)
		children = append(children, x.within("cluster.decode", r.Node, r)...)
		out = append(out, float64(selfTime(spanIvl(r), ivls(children)))/1e6)
	}
	return out
}
