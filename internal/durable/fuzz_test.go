package durable

import (
	"maps"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/everest-project/everest/internal/labelstore"
)

// refReplay is an independent reference for what recovery must produce
// from one segment's raw bytes: walk records greedily from the empty
// version-0 state, collect each commit's contiguous records, apply a
// commit once its last record (one without the continuation bit) has
// decoded, and stop at the first framing/checksum failure or version
// gap, or at the end of the bytes — a commit still open there is
// dropped. Recovery over arbitrary bytes must agree with this prefix
// exactly.
func refReplay(data []byte) (labelstore.Map, uint64) {
	var labels labelstore.Map
	version := uint64(0)
	var commit []Record
	off := 0
	for off < len(data) {
		rec, next, err := decodeRecord(data, off)
		if err != nil {
			break
		}
		off = next
		if len(commit) == 0 && rec.Version <= version {
			continue // a stale record
		}
		if rec.Version != version+uint64(len(commit))+1 {
			break
		}
		if commit = append(commit, rec); rec.More {
			continue
		}
		for _, r := range commit {
			for i, f := range r.Frames {
				if r.Type == recPublish {
					labels = labels.Set(f, r.Scores[i])
				} else {
					labels = labels.Delete(f)
				}
			}
			version = r.Version
		}
		commit = nil
	}
	return labels, version
}

func sameState(a labelstore.Map, av uint64, b labelstore.Map, bv uint64) bool {
	if av != bv || a.Len() != b.Len() {
		return false
	}
	same := true
	a.Range(func(f int, v float64) bool {
		got, ok := b.Get(f)
		if !ok || got != v {
			same = false
		}
		return same
	})
	return same
}

// FuzzWALReplay drops arbitrary bytes into a segment file and recovers.
// Whatever the bytes, Open must not panic, must yield exactly the
// checksum-valid contiguous prefix of whole commits, and — because
// recovery physically truncates the torn tail — a second Open must
// reproduce the first recovery bit-for-bit.
func FuzzWALReplay(f *testing.F) {
	// Seed corpus: a clean two-record log, a publish-then-evict log, a
	// truncated tail, a bit-flipped payload, garbage, an empty file, and
	// a clean log followed by a publish or evict with a duplicate frame.
	clean := appendRecord(nil, Record{Type: recPublish, Version: 1, Frames: []int{3, 7, 12}, Scores: []float64{0.5, 0.25, 0.875}})
	clean = appendRecord(clean, Record{Type: recPublish, Version: 2, Frames: []int{20}, Scores: []float64{1}})
	withEvict := appendRecord(append([]byte(nil), clean...), Record{Type: recEvict, Version: 3, Frames: []int{7, 20}})
	f.Add(append([]byte(nil), clean...))
	f.Add(append([]byte(nil), withEvict...))
	f.Add(append([]byte(nil), withEvict[:len(withEvict)-5]...))
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)-2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("not a wal segment at all"))
	f.Add([]byte{})
	// A checksum-valid record with a duplicate frame: recovery must stop
	// before it, keeping the clean prefix.
	f.Add(appendRecord(append([]byte(nil), clean...), Record{Type: recPublish, Version: 3, Frames: []int{5, 5}, Scores: []float64{1, 2}}))
	f.Add(appendRecord(append([]byte(nil), clean...), Record{Type: recEvict, Version: 3, Frames: []int{3, 3}}))
	// A publish and its eviction as one commit, then the same commit
	// torn before its last record ends, and one cut after its first
	// record: recovery keeps the clean prefix without the publish.
	commit := appendRecord(append([]byte(nil), clean...), Record{Type: recPublish, Version: 3, Frames: []int{30, 31}, Scores: []float64{3, 3.5}, More: true})
	first := len(commit)
	commit = appendRecord(commit, Record{Type: recEvict, Version: 4, Frames: []int{3, 7}})
	f.Add(append([]byte(nil), commit...))
	f.Add(append([]byte(nil), commit[:len(commit)-3]...))
	f.Add(append([]byte(nil), commit[:first]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open on fuzzed segment: %v", err)
		}
		m, v := s.Recovered()
		wantM, wantV := refReplay(data)
		if !sameState(m, v, wantM, wantV) {
			t.Fatalf("recovered version %d (%d labels), reference prefix is version %d (%d labels)",
				v, m.Len(), wantV, wantM.Len())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Idempotence: the truncated log recovers to the same state.
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen after truncation: %v", err)
		}
		defer r.Close()
		m2, v2 := r.Recovered()
		if !sameState(m, v, m2, v2) {
			t.Fatalf("recovery not idempotent: first (v%d, %d labels), second (v%d, %d labels)",
				v, m.Len(), v2, m2.Len())
		}
	})
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint decoder:
// it must never panic, and anything it accepts must survive a semantic
// round trip — built into the Map recovery builds, re-encoded from it
// and decoded again — every score to the bit.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(appendCheckpoint(nil, labelstore.Map{}.SetSorted([]int{4, 9}, []float64{0.5, 0.75}), 3))
	f.Add(appendCheckpoint(nil, labelstore.Map{}, 0))
	f.Add([]byte("EVCKPT01 but then junk"))
	f.Add([]byte{})
	// Header count 2, one distinct frame: a duplicate, rejected.
	f.Add(checkpointBytes(3, []int{4, 0}, []float64{0.5, 0.75}))

	f.Fuzz(func(t *testing.T, data []byte) {
		labels, version, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		again := appendCheckpoint(nil, trieOf(labels), version)
		labels2, version2, err := decodeCheckpoint(again)
		if err != nil {
			t.Fatalf("re-encoded accepted checkpoint does not decode: %v", err)
		}
		sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if version != version2 || !maps.EqualFunc(labels, labels2, sameBits) {
			t.Fatalf("checkpoint round trip drifted: v%d/%d labels → v%d/%d labels",
				version, len(labels), version2, len(labels2))
		}
	})
}
