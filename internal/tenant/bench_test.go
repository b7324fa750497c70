package tenant_test

// BenchmarkTenantIngest prices tenancy: the same zipf batches pushed
// through one namespace (the no-fanout floor) and sprayed across 10k
// namespaces with a bounded resident set (the worst case: most batches
// land on an evicted tenant and pay a reload+evict round trip). The
// fanout cases report bytes/tenant — the acceptance bound the README
// documents — computed from the table's own accounting. Their tenants
// (k = 64) fill on their first batch; the sparse case's (k = 1,001,
// tenant-churn's budget) see fewer distinct items than k, as
// tenant-churn's do, so their stores, blobs and reloads are short and
// a reload grows on the next batch's new items.

import (
	"fmt"
	"testing"

	"streamfreq/internal/core"
	"streamfreq/internal/tenant"
	"streamfreq/internal/zipf"
)

func benchItems(b *testing.B, universe, n int) []core.Item {
	b.Helper()
	g, err := zipf.NewGenerator(universe, 1.1, 42, true)
	if err != nil {
		b.Fatal(err)
	}
	return g.Stream(n)
}

func tenantNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%05d", i)
	}
	return names
}

func BenchmarkTenantIngest(b *testing.B) {
	const batchLen = 256
	items := benchItems(b, 1<<12, batchLen)

	b.Run("single", func(b *testing.B) {
		tbl, err := tenant.NewTable(tenant.Options{DefaultPhi: 1.0 / 63})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(batchLen * 8)
		for i := 0; i < b.N; i++ {
			if _, _, err := tbl.IngestBatch("hot", items); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, resident := range []int{1 << 10, 1 << 13} {
		b.Run(fmt.Sprintf("fanout10k/resident%d", resident), func(b *testing.B) {
			const tenants = 10_000
			tbl, err := tenant.NewTable(tenant.Options{DefaultPhi: 1.0 / 63, MaxResident: resident})
			if err != nil {
				b.Fatal(err)
			}
			names := tenantNames(tenants)
			b.ReportAllocs()
			b.SetBytes(batchLen * 8)
			for i := 0; i < b.N; i++ {
				if _, _, err := tbl.IngestBatch(names[i%tenants], items); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if created := tbl.TableStats().Created; created > 0 {
				b.ReportMetric(float64(tbl.Bytes())/float64(created), "bytes/tenant")
			}
		})
	}

	b.Run("sparse10k/resident1024", func(b *testing.B) {
		// 64 batches of tenant-churn's stream (Zipf 1.1 over 2^20), so a
		// tenant's next batch, usually after a reload, brings new items.
		const tenants = 10_000
		stream := benchItems(b, 1<<20, 64*batchLen)
		tbl, err := tenant.NewTable(tenant.Options{DefaultPhi: 0.001, MaxResident: 1 << 10})
		if err != nil {
			b.Fatal(err)
		}
		names := tenantNames(tenants)
		b.ReportAllocs()
		b.SetBytes(batchLen * 8)
		for i := 0; i < b.N; i++ {
			off := i % 64 * batchLen
			if _, _, err := tbl.IngestBatch(names[i%tenants], stream[off:off+batchLen]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if created := tbl.TableStats().Created; created > 0 {
			b.ReportMetric(float64(tbl.Bytes())/float64(created), "bytes/tenant")
		}
	})
}
