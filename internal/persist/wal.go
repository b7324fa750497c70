package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/stream"
	"streamfreq/internal/wire"
)

// Segment and record framing. See the package comment for the layout.

const (
	segMagic      = "SFWAL001"
	segHeaderSize = 24
	recHeaderSize = 8
	// maxRecordBytes bounds one record's payload against corrupt length
	// fields: far above any real ingest batch (serve bounds bodies, and
	// the wrappers pass batches of a few thousand items), far below
	// anything that could balloon replay memory.
	maxRecordBytes = 1 << 26

	recUnit     = 0 // body = stream.AppendRaw items, one unit count each
	recWeighted = 1 // body = item u64, count i64
	// recTenant tags a unit-count batch with its namespace and the
	// tenant's counter budget: u16 ns length | ns bytes | u32 k | items.
	// Carrying k in every record makes replay self-sufficient — a tenant
	// first seen after the last checkpoint is instantiated at exactly
	// the budget it had when the record was written, which is what makes
	// per-tenant recovery bit-identical. Old logs (kinds 0 and 1 only)
	// replay unchanged.
	recTenant = 2
)

// MaxNamespaceLen bounds a tenant namespace in WAL records, checkpoint
// manifests, and the serving layer. 128 bytes covers any sane tenant
// key and keeps the per-record framing overhead trivial.
const MaxNamespaceLen = 128

// segment is the active WAL file. Chunks of framed records are written
// directly (the Store's pending buffer is the write buffer); fsync is
// decoupled from writes.
type segment struct {
	f      *os.File
	seq    uint64
	startN int64
	size   int64 // bytes written, including the header
	// syncMu serializes fsync against close so the background flusher
	// can sync without holding any append-path lock (an fsync can take
	// tens of milliseconds; holding a write lock across it would stall
	// ingest — see Store.flusher and Store.writer).
	syncMu sync.Mutex
}

// createSegment creates, headers, and syncs a new segment file, so a
// segment observed by recovery is never headerless unless the creating
// process died mid-write (which replay treats as a torn, empty
// segment).
func createSegment(path string, seq uint64, startN int64) (*segment, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: creating segment: %w", err)
	}
	s := &segment{f: f, seq: seq, startN: startN}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(startN))
	if _, err := f.Write(hdr[:]); err == nil {
		err = s.sync()
	} else {
		err = fmt.Errorf("persist: writing segment header: %w", err)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	s.size = segHeaderSize
	return s, nil
}

// write appends a chunk of framed records to the file.
func (s *segment) write(chunk []byte) error {
	if _, err := s.f.Write(chunk); err != nil {
		return err
	}
	s.size += int64(len(chunk))
	return nil
}

// sync fsyncs the file.
func (s *segment) sync() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	return s.f.Sync()
}

// seal is sync; the name marks call sites where the segment stops being
// the active one (rotation, close).
func (s *segment) seal() error { return s.sync() }

func (s *segment) close() {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	_ = s.f.Close()
}

// appendRecord frames one record into dst: header (length, CRC) then
// payload (kind byte + body). The body encoding is stream.AppendRaw's
// little-endian item layout, emitted with direct index writes into a
// pre-grown buffer — this runs under the ingest lock for every batch,
// so the per-item append-call overhead is worth shaving.
func appendRecord(dst []byte, kind byte, ns string, k int, items []core.Item, x core.Item, count int64) []byte {
	var bodyLen int
	switch kind {
	case recUnit:
		bodyLen = 8 * len(items)
	case recWeighted:
		bodyLen = 16
	case recTenant:
		bodyLen = 2 + len(ns) + 4 + 8*len(items)
	}
	start := len(dst)
	need := recHeaderSize + 1 + bodyLen
	if cap(dst)-start < need {
		// Grow geometrically: exact-fit growth would make a run of
		// staged appends quadratic (every record re-copying the whole
		// buffer), and this runs under the ingest lock.
		newCap := 2*cap(dst) + need
		grown := make([]byte, start, newCap)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:start+need]
	dst[start+recHeaderSize] = kind
	body := dst[start+recHeaderSize+1:]
	switch kind {
	case recUnit:
		for i, it := range items {
			binary.LittleEndian.PutUint64(body[i*8:], uint64(it))
		}
	case recWeighted:
		binary.LittleEndian.PutUint64(body[0:8], uint64(x))
		binary.LittleEndian.PutUint64(body[8:16], uint64(count))
	case recTenant:
		binary.LittleEndian.PutUint16(body[0:2], uint16(len(ns)))
		copy(body[2:], ns)
		off := 2 + len(ns)
		binary.LittleEndian.PutUint32(body[off:], uint32(k))
		off += 4
		for i, it := range items {
			binary.LittleEndian.PutUint64(body[off+i*8:], uint64(it))
		}
	}
	payload := dst[start+recHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// replayResult is what scanning one segment yields.
type replayResult struct {
	records  int
	items    int64 // stream advance applied (weighted counts included)
	validEnd int64 // file offset just past the last whole, applied record
	torn     bool  // the scan stopped before EOF (tear or corruption)
	tornWhy  string
}

// record is one parsed WAL record body.
type record struct {
	kind  byte
	ns    string      // recTenant
	k     int         // recTenant
	items []core.Item // recUnit, recTenant; reused from record to record
	x     core.Item   // recWeighted
	count int64       // recWeighted
}

// parse is the one parser of a record payload: the kind byte, then the
// namespace and budget and the items, or the items alone, or one item
// and its count. It rejects any other shape.
func (rec *record) parse(payload []byte) error {
	r := wire.NewReader(payload)
	rec.kind, rec.ns, rec.k, rec.items = r.U8(), "", 0, rec.items[:0]
	switch rec.kind {
	case recUnit:
	case recWeighted:
		rec.x, rec.count = core.Item(r.U64()), r.I64()
		return r.Done()
	case recTenant:
		nsLen := r.U16()
		if nsLen > MaxNamespaceLen {
			return fmt.Errorf("tenant record with implausible namespace length %d", nsLen)
		}
		rec.ns = string(r.Bytes(uint64(nsLen)))
		rec.k = int(r.U32())
		if err := r.Err(); err != nil {
			return err
		}
		if rec.k <= 0 || rec.k > counters.MaxBudget {
			return fmt.Errorf("tenant record for %q with budget k=%d", rec.ns, rec.k)
		}
	default:
		return fmt.Errorf("unknown record kind %d", rec.kind)
	}
	if r.Len() == 0 {
		return fmt.Errorf("record kind %d with no items", rec.kind)
	}
	var err error
	rec.items, err = stream.DecodeRaw(rec.items, r.Bytes(uint64(r.Len())))
	return err
}

// replaySegment scans one segment file, verifying the header against
// the expected sequence and stream position, and applies each whole,
// CRC-clean record to target. The scan stops at the first torn frame —
// a short header or payload, or a CRC mismatch — or at a record that
// does not apply. A tear with nothing valid after it is a torn tail
// (torn=true; the caller truncates); one with a CRC-clean frame still
// following is mid-file damage in front of acknowledged data, and a
// record that does not apply was written whole: both return an error,
// as does damage in a non-last segment (the caller's position-in-chain
// check). The file is never modified here.
func replaySegment(path string, wantSeq uint64, wantStartN int64, target Target) (replayResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return replayResult{}, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<18)

	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		// Headerless or short file: a segment torn at creation. Nothing
		// to replay; the caller truncates it away entirely.
		return replayResult{torn: true, tornWhy: "short segment header"}, nil
	}
	if string(hdr[:8]) != segMagic {
		return replayResult{}, fmt.Errorf("persist: %s: bad segment magic %q", path, hdr[:8])
	}
	if seq := binary.LittleEndian.Uint64(hdr[8:16]); seq != wantSeq {
		return replayResult{}, fmt.Errorf("persist: %s: header sequence %d does not match filename", path, seq)
	}
	if startN := int64(binary.LittleEndian.Uint64(hdr[16:24])); startN != wantStartN {
		return replayResult{}, fmt.Errorf("persist: %s: starts at stream position %d, expected %d — the log chain is not continuous", path, startN, wantStartN)
	}

	res := replayResult{validEnd: segHeaderSize}
	var rh [recHeaderSize]byte
	var payload []byte
	rec := record{items: make([]core.Item, 0, core.DefaultBatchSize)}
	for {
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			if err != io.EOF {
				res.torn, res.tornWhy = true, "short record header"
			}
			return res, nil
		}
		length := binary.LittleEndian.Uint32(rh[0:4])
		crc := binary.LittleEndian.Uint32(rh[4:8])
		if length == 0 || length > maxRecordBytes {
			res.torn, res.tornWhy = true, fmt.Sprintf("implausible record length %d", length)
			return res, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			res.torn, res.tornWhy = true, "short record payload"
			return res, nil
		}
		if crc32.Checksum(payload, crcTable) != crc {
			if nextFrameValid(br) {
				return res, fmt.Errorf("persist: %s: record at offset %d fails its CRC with valid records after it — mid-segment corruption, not a tear", path, res.validEnd)
			}
			res.torn, res.tornWhy = true, "record CRC mismatch"
			return res, nil
		}
		advance, err := applyRecord(&rec, payload, target)
		if err != nil {
			return res, fmt.Errorf("persist: %s: record at offset %d does not replay: %w", path, res.validEnd, err)
		}
		res.records++
		res.items += advance
		res.validEnd += int64(recHeaderSize + len(payload))
	}
}

// nextFrameValid reports whether another whole, CRC-clean record frame
// follows on br — the decider between a CRC mismatch at the exact tail
// (a tear: trim it) and one mid-segment (fail recovery rather than drop
// the valid records behind it). br is consumed; the caller is aborting
// the scan either way.
func nextFrameValid(br *bufio.Reader) bool {
	var rh [recHeaderSize]byte
	if _, err := io.ReadFull(br, rh[:]); err != nil {
		return false
	}
	length := binary.LittleEndian.Uint32(rh[0:4])
	if length == 0 || length > maxRecordBytes {
		return false
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return false
	}
	return crc32.Checksum(payload, crcTable) == binary.LittleEndian.Uint32(rh[4:8])
}

// applyRecord parses the payload into rec and applies it to target,
// returning the stream advance. Its recover is a last guard: the one
// panic known to reach it is a counter summary refusing a weighted
// count below 1, which only a forged record holds; any other is a bug,
// reported as this record's error rather than a crash of the daemon.
func applyRecord(rec *record, payload []byte, target Target) (advance int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			advance, err = 0, fmt.Errorf("record replay panicked: %v", r)
		}
	}()
	if err := rec.parse(payload); err != nil {
		return 0, err
	}
	switch rec.kind {
	case recUnit:
		target.UpdateBatch(rec.items)
	case recTenant:
		tt, ok := target.(TenantTarget)
		if !ok {
			return 0, fmt.Errorf("tenant-tagged record in a single-tenant store")
		}
		if err := tt.UpdateTenantBatch(rec.ns, rec.k, rec.items); err != nil {
			return 0, err
		}
	default: // recWeighted
		target.Update(rec.x, rec.count)
		return rec.count, nil
	}
	return int64(len(rec.items)), nil
}

// truncateSegment drops a torn tail, leaving the longest valid prefix
// durable, so the next recovery replays the same prefix cleanly. A
// segment torn inside its header is removed outright.
func truncateSegment(path string, validEnd int64) error {
	if validEnd < segHeaderSize {
		return os.Remove(path)
	}
	if err := os.Truncate(path, validEnd); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
