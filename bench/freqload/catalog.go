package main

import (
	"math"

	"streamfreq"
)

// The metric catalogue. BENCHMARK.json lists the bounded end-to-end
// metrics and every per-layer metric; catalog_test.go keeps the two in
// step.

// bound is how far a metric may move in the worse direction before a
// comparison calls it a regression. BENCHMARK.json lists rel; -compare
// also applies the floor, which keeps a few milliseconds of process
// start-up jitter from reading as a set-up regression, and the absolute
// bound, which is what recall's guarantee is stated in.
type bound struct {
	rel   float64 // share of the baseline median
	floor float64 // smallest allowed move, in the metric's unit
	abs   float64 // fixed allowed move; replaces rel and floor when set
}

func (b bound) allowed(base float64) float64 {
	if b.abs > 0 {
		return b.abs
	}
	return math.Max(b.rel*math.Abs(base), b.floor)
}

type metricDef struct {
	name   string
	unit   string
	higher bool  // larger is better
	listed bool  // an end-to-end metric BENCHMARK.json lists
	bound  bound // listed metrics only; rel is the bound BENCHMARK.json gives
}

func (m *metricDef) better() string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// worse reports whether v is worse than base by more than the bound.
func (m *metricDef) worse(base, v float64) bool {
	d := v - base
	if m.higher {
		d = -d
	}
	return d > m.bound.allowed(base)
}

// endToEnd is every metric a user of the tier would see. The listed
// ones repeat within their bound on the reference box across runs of
// different seeds, every workload reports them, and they are never 0.
// The rest are reported without a bound, each for a reason
// bench/README.md gives with its measured spread: the times and rates
// spread past a tenth of their median as the shared box's speed drifts,
// precision moves with the seed's data by more than its 0.005 bound,
// and error rate, ARE, freshness and the tail percentiles are 0 or null
// on some workload.
var endToEnd = []metricDef{
	// Set-up's bound is the largest: the floor keeps a few milliseconds of
	// process start-up jitter from reading as a regression of a 6 ms set-up.
	{name: "setup_s", unit: "s", bound: bound{rel: 0.25, floor: 0.005}, listed: true},
	{name: "ingest_items_per_s", unit: "items/s", higher: true},
	{name: "query_per_s", unit: "1/s", higher: true},
	{name: "ingest_p50_ms", unit: "ms"},
	{name: "ingest_p90_ms", unit: "ms"},
	{name: "ingest_p99_ms", unit: "ms"},
	{name: "query_p50_ms", unit: "ms"},
	{name: "query_p90_ms", unit: "ms"},
	{name: "query_p99_ms", unit: "ms"},
	{name: "topk_p50_ms", unit: "ms"},
	{name: "hhh_p50_ms", unit: "ms"},
	{name: "fresh_lag_p50_ms", unit: "ms"},
	{name: "error_rate", unit: "ratio"},
	{name: "recall", unit: "ratio", higher: true, bound: bound{rel: 0.005, abs: 0.005}, listed: true},
	{name: "precision", unit: "ratio", higher: true},
	{name: "are", unit: "ratio"},
	{name: "peak_rss_mb", unit: "MB", bound: bound{rel: 0.1}, listed: true},
}

// perLayer is every single-layer metric of the traced run. A layer a
// workload does not run reports 0.
var perLayer = func() []metricDef {
	m := func(name, unit string, higher bool) metricDef {
		return metricDef{name: name, unit: unit, higher: higher}
	}
	out := []metricDef{
		m("loadgen.late_p99_ms", "ms", false),
		m("loadgen.attempted", "count", true),
		m("loadgen.failed", "count", false),
		m("router.self_p50_ms", "ms", false),
		m("router.forward_p50_ms", "ms", false),
		m("router.forward_p99_ms", "ms", false),
		m("router.forwards_per_req", "count", false),
		m("router.forward_mb_per_s", "MB/s", true),
		m("router.shard_skew", "ratio", false),
		m("router.retries", "count", false),
		m("stream.raw_ns_per_item", "ns", false),
		m("stream.text_ns_per_item", "ns", false),
		m("serve.ingest_p50_ms", "ms", false),
		m("serve.ingest_self_p50_ms", "ms", false),
		m("serve.query_p50_ms", "ms", false),
		m("serve.query_self_p50_ms", "ms", false),
		m("serve.summary_p50_ms", "ms", false),
		m("serve.refused", "count", false),
		m("core.apply_p50_ms", "ms", false),
		m("core.apply_p99_ms", "ms", false),
		m("core.apply_self_p50_ms", "ms", false),
		m("core.view_p50_ms", "ms", false),
		m("core.view_refresh_ratio", "ratio", false),
		m("core.staged_items_max", "count", false),
		m("persist.append_p50_ms", "ms", false),
		m("persist.append_p99_ms", "ms", false),
		m("persist.wal_bytes_per_item", "B/item", false),
		m("persist.recover_s", "s", false),
		m("persist.replay_items_per_s", "items/s", true),
	}
	for _, a := range streamfreq.Algorithms() {
		p := "summary." + a + "."
		out = append(out,
			m(p+"upd_per_ms", "1/ms", true),
			m(p+"bytes", "B", false),
			m(p+"recall", "ratio", true),
			m(p+"precision", "ratio", true),
			m(p+"are", "ratio", false))
	}
	return append(out,
		m("cluster.pull_p50_ms", "ms", false),
		m("cluster.pull_kb", "KB", false),
		m("cluster.decode_p50_ms", "ms", false),
		m("cluster.rebuild_self_p50_ms", "ms", false),
		m("cluster.query_self_p50_ms", "ms", false),
		m("tenant.ingest_p50_ms", "ms", false),
		m("tenant.evictions_per_s", "1/s", false),
		m("tenant.reloads_per_s", "1/s", false),
		m("ledger.stage_sum_ms", "ms", false),
		m("ledger.residual_ms", "ms", false),
		m("ledger.trace_overhead_pct", "%", false),
	)
}()

func findMetric(name string) *metricDef {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for i := range list {
			if list[i].name == name {
				return &list[i]
			}
		}
	}
	return nil
}
