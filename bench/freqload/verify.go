package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"

	"streamfreq/internal/core"
	"streamfreq/internal/metrics"
)

// Correctness: exact counts are rebuilt after the load from per-body
// ack counts (the generator does no hashing or counting while it
// drives), then the tier's merged view is checked against them.

// ackTally counts, per stream key, how often each body was acknowledged.
type ackTally map[string]map[int]int64

func tallyAcks(samples []sample) ackTally {
	t := ackTally{}
	for i := range samples {
		s := &samples[i]
		if s.req.body < 0 || !s.ok() {
			continue
		}
		m := t[s.req.key]
		if m == nil {
			m = map[int]int64{}
			t[s.req.key] = m
		}
		m[s.req.body]++
	}
	return t
}

// items is how many items were acknowledged into key.
func (t ackTally) items(in *inputs, key string) int64 {
	var n int64
	for b, c := range t[key] {
		n += c * int64(len(in.bodies[b].items))
	}
	return n
}

func (t ackTally) total(in *inputs) int64 {
	var n int64
	for key := range t {
		n += t.items(in, key)
	}
	return n
}

// truth is the exact count of every item acknowledged into key.
func (t ackTally) truth(in *inputs, key string) map[core.Item]int64 {
	out := map[core.Item]int64{}
	for b, c := range t[key] {
		for _, it := range in.bodies[b].items {
			out[it] += c
		}
	}
	return out
}

// gate is one pass/fail correctness check.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func newGate(name string, ok bool, format string, args ...any) gate {
	return gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// accuracy pools the paper's measures over every checked stream: true
// heavy hitters reported (hits), items reported, true heavy hitters, and
// the sum of their relative errors.
type accuracy struct {
	hits, reported, truth int
	reSum                 float64
}

func (a *accuracy) add(b accuracy) {
	a.hits += b.hits
	a.reported += b.reported
	a.truth += b.truth
	a.reSum += b.reSum
}

func (a *accuracy) precision() float64 {
	if a.reported == 0 {
		return 1
	}
	return float64(a.hits) / float64(a.reported)
}

func (a *accuracy) recall() float64 {
	if a.truth == 0 {
		return 1
	}
	return float64(a.hits) / float64(a.truth)
}

func (a *accuracy) are() float64 {
	if a.truth == 0 {
		return 0
	}
	return a.reSum / float64(a.truth)
}

// topkReply is a /v1/topk answer.
type topkReply struct {
	N         int64 `json:"n"`
	Threshold int64 `json:"threshold"`
	Items     []struct {
		Item  uint64 `json:"item"`
		Count int64  `json:"count"`
	} `json:"items"`
}

// verify checks the acked-n gate and scores /v1/topk?phi=φ against
// exact counts. queryBase serves the reads: a coordinator, refreshed
// first so it pulls every acknowledged batch, or a tenant node, whose
// reads are live.
func verify(ctx context.Context, w *workload, in *inputs, tally ackTally, queryBase string, hasMerge bool) ([]gate, accuracy, error) {
	c := &http.Client{Timeout: 60 * requestTimeout}
	acked := tally.total(in)
	var served struct {
		N int64 `json:"n"`
	}
	if hasMerge {
		if err := doJSON(ctx, c, http.MethodPost, queryBase+"/v1/refresh", &served); err != nil {
			return nil, accuracy{}, err
		}
	} else if err := getJSON(ctx, c, queryBase+"/v1/stats", &served); err != nil {
		return nil, accuracy{}, err
	}
	gates := []gate{newGate("acked-n", served.N == acked, "served n %d, acked %d", served.N, acked)}

	keys := in.hot
	topk := func(string) string { return "/v1/topk?phi=" + phiParam }
	if keys == nil {
		keys = []string{""}
	} else {
		topk = func(ns string) string { return "/v1/t/" + ns + "/topk?phi=" + phiParam }
	}
	var acc accuracy
	for _, key := range keys {
		var r topkReply
		if err := getJSON(ctx, c, queryBase+topk(key), &r); err != nil {
			return nil, accuracy{}, err
		}
		if key != "" {
			want := tally.items(in, key)
			gates = append(gates, newGate("acked-n/"+key, r.N == want, "served n %d, acked %d", r.N, want))
		}
		truth := tally.truth(in, key)
		exact := make([]core.ItemCount, 0, len(truth))
		for it, n := range truth {
			exact = append(exact, core.ItemCount{Item: it, Count: n})
		}
		reported := make([]core.ItemCount, len(r.Items))
		for i, x := range r.Items {
			reported[i] = core.ItemCount{Item: core.Item(x.Item), Count: x.Count}
		}
		a := metrics.Evaluate(reported, metrics.TruthMap(exact, r.Threshold))
		acc.add(accuracy{
			hits:     int(math.Round(a.Precision * float64(a.Reported))),
			reported: a.Reported,
			truth:    a.Truth,
			reSum:    a.ARE * float64(a.Truth),
		})
	}
	if w.ssh() {
		gates = append(gates, newGate("recall", acc.recall() == 1,
			"recall %.4f over %d true heavy hitters (Space-Saving guarantees 1)", acc.recall(), acc.truth))
	}
	return gates, acc, nil
}

// ackLog orders every acknowledged batch per stream key by ack time, for
// freshness.
func ackLog(in *inputs, samples []sample) map[string][]ack {
	out := map[string][]ack{}
	for i := range samples {
		s := &samples[i]
		if s.req.body >= 0 && s.ok() {
			out[s.req.key] = append(out[s.req.key], ack{at: s.done, items: int64(len(in.bodies[s.req.body].items))})
		}
	}
	for _, as := range out {
		sort.Slice(as, func(i, j int) bool { return as[i].at.Before(as[j].at) })
	}
	return out
}
