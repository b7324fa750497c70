package main

import (
	"bytes"
	"strconv"
	"strings"
	"time"

	"streamfreq"
	"streamfreq/internal/core"
	"streamfreq/internal/exact"
	"streamfreq/internal/metrics"
	"streamfreq/internal/persist"
	"streamfreq/internal/stream"
	"streamfreq/internal/tenant"
	"streamfreq/internal/zipf"
)

// Layer measurements the traced run makes by calling a layer's public
// functions directly on the run's own inputs, single-threaded: the
// paper's per-algorithm measures, the ingest decoders, and the tenant
// table (which serve calls without an interface a span could wrap).

// replayItems is the length of the seed stream every algorithm replays.
const replayItems = 1 << 22

// replaySummaries replays n items of the bulk-zipf seed stream through every
// registry algorithm provisioned for φ and records updates per ms,
// bytes, and precision, recall and ARE against exact counts: the
// single-threaded baseline the tier's throughput compares to.
func replaySummaries(seed uint64, n int, m metricSet) error {
	g, err := zipf.NewGenerator(1<<20, 1.1, newSeeds(seed).next(), true)
	if err != nil {
		return err
	}
	items := g.Stream(n)
	truth := exact.New()
	for _, it := range items {
		truth.Update(it, 1)
	}
	threshold := int64(phi * float64(len(items)))
	heavy := metrics.TruthMap(truth.Query(threshold), threshold)
	for _, a := range streamfreq.Algorithms() {
		s := streamfreq.MustNew(a, phi, 1)
		start := time.Now()
		streamfreq.Replay(s, items, 0)
		elapsed := time.Since(start)
		acc := metrics.Evaluate(s.Query(threshold), heavy)
		p := "summary." + a + "."
		m.set(p+"upd_per_ms", float64(len(items))/ms(elapsed), len(items))
		m.set(p+"bytes", float64(s.Bytes()), 1)
		m.set(p+"recall", acc.Recall, acc.Truth)
		m.set(p+"precision", acc.Precision, acc.Reported)
		m.set(p+"are", acc.ARE, acc.Truth)
	}
	return nil
}

// decodeCost times stream.OpenIngest over the run's bodies in both wire
// formats, in ns per item: raw little-endian items, and the same items
// as text tokens (the small-text bodies themselves when the run sends
// text).
func decodeCost(in *inputs, m metricSet) {
	var raw, text [][]byte
	for _, b := range in.bodies {
		raw = append(raw, stream.AppendRaw(nil, b.items))
		if in.ctype == "text/plain" {
			text = append(text, b.data)
			continue
		}
		toks := make([]string, len(b.items))
		for i, it := range b.items {
			toks[i] = "w" + strconv.FormatUint(uint64(it), 36)
		}
		text = append(text, []byte(strings.Join(toks, " ")))
	}
	m.set("stream.raw_ns_per_item", decodeNs("application/octet-stream", raw), len(raw))
	m.set("stream.text_ns_per_item", decodeNs("text/plain", text), len(text))
}

func decodeNs(ctype string, bodies [][]byte) float64 {
	buf := make([]core.Item, core.DefaultBatchSize)
	var items int
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for _, b := range bodies {
			src, err := stream.OpenIngest(ctype, bytes.NewReader(b), 1<<16) // freqd's label budget
			if err != nil {
				panic(err) // the content types are the two the decoder serves
			}
			for n := src.NextBatch(buf); n > 0; n = src.NextBatch(buf) {
				items += n
			}
		}
	}
	return float64(time.Since(start)) / float64(items)
}

// tenantIngestCost replays the run's namespaced ingest sequence through
// a fresh durable tenant table, as freqd -tenants builds it, and
// returns each IngestBatch call's time in ms.
func tenantIngestCost(in *inputs, dir string) ([]float64, error) {
	table, err := tenant.NewTable(tenant.Options{DefaultPhi: phi, MaxResident: tenantResident})
	if err != nil {
		return nil, err
	}
	store, err := persist.Open(persist.Options{Dir: dir, Algo: "SSH", Fsync: persist.FsyncInterval, Decode: streamfreq.Decode})
	if err != nil {
		return nil, err
	}
	if _, err := store.Recover(table); err != nil {
		return nil, err
	}
	table.PersistTo(store)
	var out []float64
	for _, r := range in.ingest {
		start := time.Now()
		if _, _, err := table.IngestBatch(r.key, in.bodies[r.body].items); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, store.Close()
}
