// Package tenant implements the multi-tenant summary table behind
// freqd: a namespace-keyed collection of Space-Saving summaries that
// share one write-ahead log and one checkpoint manifest.
//
// Namespaces are lazily instantiated on first ingest — creating a
// tenant is a map insert plus an empty counter store
// (counters.NewSpaceSavingHeap, 32 B a counter slot plus its index).
// The first batch grows the store once, to the step that holds the
// batch's distinct items, and it doubles toward the tenant's budget
// only as new items arrive, so a million namespaces can come into
// existence without pre-provisioning and a tenant that has seen few
// distinct items holds a store sized to them. A CLOCK
// (second-chance) policy bounds how many tenants stay resident: when
// the resident count exceeds the configured cap, cold tenants are
// encoded to their compact wire blob (SS02) and their store is dropped.
// An evicted tenant costs only its blob bytes until it is touched
// again: under 20 for a tenant holding one small count, about 10 a
// counter while counts stay below 128, and in general 8 a counter plus
// its count's and error's varint lengths. A touch decodes the blob into
// a store sized by the entries it carries, which grows along the same
// doubling steps, up to the budget, when new items arrive. The
// encode→decode→encode round trip is byte-identical, so eviction never
// perturbs the durable state a checkpoint would capture, and the
// table's Bytes is that state's footprint: the resident stores plus
// the evicted blobs.
//
// The table implements persist.TenantTarget: ingest appends
// tenant-tagged WAL records (kind recTenant, carrying the namespace
// and its counter budget) before applying, checkpoints capture every
// namespace in a SFCKPT02 manifest, and recovery hands blobs back
// still encoded — a restart with a million tenants decodes none of
// them until they are touched. It also implements the single-tenant
// serve.Target contract by routing Update/UpdateBatch/Estimate/Query
// to the default namespace "", so a tenant table is a drop-in target
// for the legacy routes and for pre-tenant data directories.
//
// Per-namespace φ thresholds: each tenant's counter budget k = ⌊1/φ⌋+1
// is fixed at instantiation from the namespace's φ override (or the
// table default), and the overrides are fixed when the table is built.
// The budget is burned into the WAL records and checkpoint manifest, so
// recovery rebuilds the same summary bit for bit even when a restart
// configures different overrides.
package tenant
