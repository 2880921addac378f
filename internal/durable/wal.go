package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// WAL record wire format. Each record is self-delimiting and
// self-validating, so recovery can walk a segment byte stream and stop
// at the first record whose checksum or framing fails — the torn tail a
// crash mid-append leaves behind:
//
//	uint32  CRC32 (IEEE) of the length field and the payload
//	uint32  payload length (little-endian)
//	payload:
//	  byte     record type (1 = publish, 2 = evict), plus 0x80 when a
//	           later record of the same commit follows
//	  uvarint  version — the cache version this record produced
//	  uvarint  count   — number of frames in the record
//	  publish: count × (uvarint frame delta, 8-byte score bits)
//	  evict:   count × (uvarint frame delta)
//
// Frames are stored strictly ascending and delta-encoded (first frame
// absolute, the rest as positive gaps), matching the sorted fold order
// labelstore.SharedCache.Publish already guarantees; the writer rejects
// any other order and the decoder treats a zero gap after the first
// frame as corruption. Scores are raw IEEE-754 bits, so replay
// reproduces them bit-exactly.
//
// A commit — what one cache lock hold staged, a publish and the
// eviction it triggered — is a run of records in one segment, written
// by one write: every record but the last carries the continuation bit
// (recMore). Recovery applies a commit only once its last record has
// decoded; a commit cut short by a crash ends the log where it began. A
// log written before commits were marked has no continuation bits, so
// each of its records is a commit of its own, as it was.
const (
	recPublish byte = 1
	recEvict   byte = 2
	recMore    byte = 0x80

	recHeaderLen = 8
	// maxRecordLen bounds a single record's payload so an adversarial or
	// corrupt length field can never drive a multi-gigabyte allocation
	// during recovery: framing beyond it is treated as corruption.
	maxRecordLen = 1 << 26
)

// Record is one decoded WAL record.
type Record struct {
	Type    byte
	Version uint64
	Frames  []int
	Scores  []float64 // publish records only, parallel to Frames
	More    bool      // a later record of the same commit follows
}

// validate checks what the encoder trusts: frames non-negative,
// strictly ascending and within the decoder's range, and a publish's
// scores parallel to them. A violating record would encode a delta the
// decoder rejects, so recovery would stop there and drop every later
// record.
func (r Record) validate() error {
	if r.Type == recPublish && len(r.Scores) != len(r.Frames) {
		return fmt.Errorf("durable: publish of %d frames carries %d scores", len(r.Frames), len(r.Scores))
	}
	for i, f := range r.Frames {
		if f < 0 || f > math.MaxInt32 || i > 0 && f <= r.Frames[i-1] {
			return fmt.Errorf("durable: frame %d at position %d is negative, out of range or not strictly ascending", f, i)
		}
	}
	return nil
}

// appendRecord encodes r onto buf and returns the extended slice: the
// header's room first, then the payload, then the header filled in. The
// length field and the payload are adjacent, so one checksum covers
// both, and a caller that passes a reused buffer allocates nothing.
func appendRecord(buf []byte, r Record) []byte {
	start := len(buf)
	var hdr [recHeaderLen]byte
	buf = append(buf, hdr[:]...)
	if r.More {
		buf = append(buf, r.Type|recMore)
	} else {
		buf = append(buf, r.Type)
	}
	buf = binary.AppendUvarint(buf, r.Version)
	buf = binary.AppendUvarint(buf, uint64(len(r.Frames)))
	prev := 0
	for i, f := range r.Frames {
		buf = binary.AppendUvarint(buf, uint64(f-prev))
		prev = f
		if r.Type == recPublish {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Scores[i]))
		}
	}
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(len(buf)-start-recHeaderLen))
	binary.LittleEndian.PutUint32(buf[start:], crc32.ChecksumIEEE(buf[start+4:]))
	return buf
}

// decodeRecord reads the record starting at data[off]. It returns the
// record and the offset just past it. A framing or checksum failure
// returns an error and leaves next == off — recovery truncates there.
func decodeRecord(data []byte, off int) (rec Record, next int, err error) {
	if len(data)-off < recHeaderLen {
		return Record{}, off, fmt.Errorf("durable: truncated record header at offset %d", off)
	}
	crc := binary.LittleEndian.Uint32(data[off:])
	plen := int(binary.LittleEndian.Uint32(data[off+4:]))
	if plen <= 0 || plen > maxRecordLen || len(data)-off-recHeaderLen < plen {
		return Record{}, off, fmt.Errorf("durable: bad record length %d at offset %d", plen, off)
	}
	payload := data[off+recHeaderLen : off+recHeaderLen+plen]
	got := crc32.ChecksumIEEE(data[off+4 : off+recHeaderLen])
	got = crc32.Update(got, crc32.IEEETable, payload)
	if got != crc {
		return Record{}, off, fmt.Errorf("durable: record checksum mismatch at offset %d", off)
	}
	rec, err = parsePayload(payload)
	if err != nil {
		return Record{}, off, fmt.Errorf("durable: %w at offset %d", err, off)
	}
	return rec, off + recHeaderLen + plen, nil
}

// parsePayload decodes a checksum-valid payload. A payload that passes
// the CRC but fails structural validation is still treated as
// corruption — the checksum guards bit rot, not logic errors.
func parsePayload(p []byte) (Record, error) {
	if len(p) < 1 {
		return Record{}, fmt.Errorf("empty record payload")
	}
	rec := Record{Type: p[0] &^ recMore, More: p[0]&recMore != 0}
	if rec.Type != recPublish && rec.Type != recEvict {
		return Record{}, fmt.Errorf("unknown record type %d", rec.Type)
	}
	p = p[1:]
	version, n := binary.Uvarint(p)
	if n <= 0 {
		return Record{}, fmt.Errorf("bad record version field")
	}
	p = p[n:]
	rec.Version = version
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(len(p)-n) { // every frame takes at least one byte
		return Record{}, fmt.Errorf("bad record frame count")
	}
	p = p[n:]
	rec.Frames = make([]int, 0, count)
	if rec.Type == recPublish {
		rec.Scores = make([]float64, 0, count)
	}
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(p)
		if n <= 0 {
			return Record{}, fmt.Errorf("bad frame delta")
		}
		p = p[n:]
		if i > 0 && delta == 0 {
			return Record{}, fmt.Errorf("duplicate frame %d", prev)
		}
		if delta > math.MaxInt32-prev {
			return Record{}, fmt.Errorf("frame index out of range after %d", prev)
		}
		prev += delta
		rec.Frames = append(rec.Frames, int(prev))
		if rec.Type == recPublish {
			if len(p) < 8 {
				return Record{}, fmt.Errorf("truncated score")
			}
			rec.Scores = append(rec.Scores, math.Float64frombits(binary.LittleEndian.Uint64(p)))
			p = p[8:]
		}
	}
	if len(p) != 0 {
		return Record{}, fmt.Errorf("%d trailing payload bytes", len(p))
	}
	return rec, nil
}
