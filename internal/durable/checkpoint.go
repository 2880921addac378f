package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/everest-project/everest/internal/labelstore"
)

// Checkpoint file format — a full materialization of the label store at
// one version, written atomically (temp file + fsync + rename + dir
// fsync) so a crash mid-write can never leave a half checkpoint under
// the real name:
//
//	8 bytes  magic "EVCKPT01" (identifies file type AND format version)
//	uvarint  version — the cache version the snapshot represents
//	uvarint  count   — number of labels
//	count ×  (uvarint frame delta, 8-byte score bits), frames strictly ascending
//	uint32   CRC32 (IEEE) of every preceding byte
//
// Frames are delta-encoded ascending, exactly the WAL's publish layout,
// and scores are raw IEEE-754 bits for bit-exact recovery.
var ckptMagic = [8]byte{'E', 'V', 'C', 'K', 'P', 'T', '0', '1'}

// appendCheckpoint appends the checkpoint wire form of (labels,
// version) to buf. Map.Range walks the frames ascending, the order the
// format requires.
func appendCheckpoint(buf []byte, labels labelstore.Map, version uint64) []byte {
	start := len(buf)
	buf = append(buf, ckptMagic[:]...)
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendUvarint(buf, uint64(labels.Len()))
	prev := 0
	labels.Range(func(f int, v float64) bool {
		buf = binary.AppendUvarint(buf, uint64(f-prev))
		prev = f
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		return true
	})
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// decodeCheckpoint validates and decodes a checkpoint file's bytes. Any
// failure — magic, framing, checksum — returns an error; recovery then
// falls back to the next-older checkpoint.
func decodeCheckpoint(data []byte) (map[int]float64, uint64, error) {
	if len(data) < len(ckptMagic)+4 {
		return nil, 0, fmt.Errorf("durable: checkpoint too short (%d bytes)", len(data))
	}
	if string(data[:len(ckptMagic)]) != string(ckptMagic[:]) {
		return nil, 0, fmt.Errorf("durable: bad checkpoint magic")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, 0, fmt.Errorf("durable: checkpoint checksum mismatch")
	}
	p := body[len(ckptMagic):]
	version, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, 0, fmt.Errorf("durable: bad checkpoint version field")
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	// Each label takes at least 9 bytes, so a count the body cannot hold
	// is rejected before sizing the map by it.
	if n <= 0 || count > uint64(len(p)-n)/9 {
		return nil, 0, fmt.Errorf("durable: bad checkpoint label count")
	}
	p = p[n:]
	labels := make(map[int]float64, count)
	prev := uint64(0)
	for i := range count {
		delta, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, 0, fmt.Errorf("durable: bad checkpoint frame delta")
		}
		p = p[n:]
		if i > 0 && delta == 0 {
			return nil, 0, fmt.Errorf("durable: duplicate checkpoint frame %d", prev)
		}
		if delta > math.MaxInt32-prev {
			return nil, 0, fmt.Errorf("durable: checkpoint frame index out of range")
		}
		prev += delta
		if len(p) < 8 {
			return nil, 0, fmt.Errorf("durable: truncated checkpoint score")
		}
		labels[int(prev)] = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	if len(p) != 0 {
		return nil, 0, fmt.Errorf("durable: %d trailing checkpoint bytes", len(p))
	}
	return labels, version, nil
}
