package tenant

import (
	"encoding/binary"
	"fmt"
	"sort"

	"streamfreq/internal/persist"
)

// Bundle wire format: every namespace's encoded summary in one frame,
// the unit freqmerge pulls from tenant-mode nodes so it can merge
// per-namespace instead of per-node.
//
//	magic "SFTB0001"
//	u32   tenant count
//	per tenant: u16 nsLen | ns | u32 blobLen | blob (SS01)
//
// Entries are sorted by namespace; all integers little-endian.
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
	buf := make([]byte, 0, 64+32*len(names))
	buf = append(buf, bundleMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(names)))
	for _, ns := range names {
		ts := t.tenants[ns]
		blob := ts.blob
		if ts.sum != nil {
			var err error
			if blob, err = ts.sum.MarshalBinary(); err != nil {
				return nil, fmt.Errorf("tenant: encoding %q: %w", ns, err)
			}
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ns)))
		buf = append(buf, ns...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}
	return buf, nil
}

// DecodeBundle parses a frame produced by EncodeBundle. Blobs are
// returned still encoded; the caller decodes with the codec matching
// the node's algorithm.
func DecodeBundle(data []byte) ([]NamespaceBlob, error) {
	if len(data) < len(bundleMagic)+4 || string(data[:len(bundleMagic)]) != bundleMagic {
		return nil, fmt.Errorf("tenant: not a summary bundle")
	}
	off := len(bundleMagic)
	count := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if uint64(count) > uint64((len(data)-off)/minBundleEntry) {
		return nil, fmt.Errorf("tenant: bundle claims %d namespaces in %d bytes", count, len(data)-off)
	}
	out := make([]NamespaceBlob, 0, count)
	for i := uint32(0); i < count; i++ {
		if off+2 > len(data) {
			return nil, fmt.Errorf("tenant: bundle truncated in entry %d", i)
		}
		nsLen := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if nsLen > persist.MaxNamespaceLen || off+nsLen+4 > len(data) {
			return nil, fmt.Errorf("tenant: bundle entry %d has bad namespace length %d", i, nsLen)
		}
		ns := string(data[off : off+nsLen])
		off += nsLen
		blobLen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if blobLen < 0 || off+blobLen > len(data) {
			return nil, fmt.Errorf("tenant: bundle entry %d has bad blob length %d", i, blobLen)
		}
		out = append(out, NamespaceBlob{NS: ns, Blob: data[off : off+blobLen]})
		off += blobLen
	}
	if off != len(data) {
		return nil, fmt.Errorf("tenant: %d trailing bytes after bundle", len(data)-off)
	}
	return out, nil
}
