package tenant

import (
	"encoding/binary"
	"fmt"
	"sort"

	"streamfreq/internal/persist"
	"streamfreq/internal/wire"
)

// Bundle wire format: every namespace's encoded summary in one frame,
// the unit freqmerge pulls from tenant-mode nodes so it can merge
// per-namespace instead of per-node.
//
//	magic "SFTB0001"
//	u32   tenant count
//	per tenant: u16 nsLen | ns | u32 blobLen | blob (SS02)
//
// Entries are sorted by namespace; all integers little-endian. A
// tenant restored from an earlier build's checkpoint and not touched
// since ships its SS01 blob as it is; freqmerge decodes both.
const bundleMagic = "SFTB0001"

// minBundleEntry is the smallest entry on the wire (empty namespace,
// empty blob): DecodeBundle bounds a claimed count by the entries the
// remaining bytes can hold, so a hostile header allocates O(len(data)).
const minBundleEntry = 2 + 4

// NamespaceBlob pairs a namespace with its encoded summary.
type NamespaceBlob struct {
	NS   string
	Blob []byte
}

// EncodeBundle captures every namespace under one lock hold. Resident
// tenants are encoded in place (MarshalBinary does not mutate);
// evicted ones contribute their stored blob, so the frame is exactly
// what a checkpoint of the same instant would hold.
func (t *Table) EncodeBundle() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.tenants))
	for ns := range t.tenants {
		names = append(names, ns)
	}
	sort.Strings(names)
	blobs := make([][]byte, len(names))
	size := len(bundleMagic) + 4
	for i, ns := range names {
		ts := t.tenants[ns]
		blobs[i] = ts.blob
		if ts.sum != nil {
			var err error
			if blobs[i], err = ts.sum.MarshalBinary(); err != nil {
				return nil, fmt.Errorf("tenant: encoding %q: %w", ns, err)
			}
		}
		size += minBundleEntry + len(ns) + len(blobs[i])
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = append(buf, bundleMagic...)
	buf = le.AppendUint32(buf, uint32(len(names)))
	for i, ns := range names {
		buf = le.AppendUint16(buf, uint16(len(ns)))
		buf = append(buf, ns...)
		buf = le.AppendUint32(buf, uint32(len(blobs[i])))
		buf = append(buf, blobs[i]...)
	}
	return buf, nil
}

// DecodeBundle parses a frame produced by EncodeBundle. Blobs are
// returned still encoded; the caller decodes with the codec matching
// the node's algorithm.
func DecodeBundle(data []byte) ([]NamespaceBlob, error) {
	r := wire.NewReader(data)
	r.Magic(bundleMagic)
	count := r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tenant: bundle header: %w", err)
	}
	if uint64(count) > uint64(r.Len()/minBundleEntry) {
		return nil, fmt.Errorf("tenant: bundle claims %d namespaces in %d bytes", count, r.Len())
	}
	out := make([]NamespaceBlob, 0, count)
	for i := uint32(0); i < count; i++ {
		nsLen := r.U16()
		if nsLen > persist.MaxNamespaceLen {
			return nil, fmt.Errorf("tenant: bundle entry %d has bad namespace length %d", i, nsLen)
		}
		ns := r.Bytes(uint64(nsLen))
		blob := r.Bytes(uint64(r.U32()))
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("tenant: bundle entry %d: %w", i, err)
		}
		out = append(out, NamespaceBlob{NS: string(ns), Blob: blob})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	return out, nil
}
