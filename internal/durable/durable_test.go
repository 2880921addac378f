package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/labelstore"
)

// publishOne and evictOne stage one record and commit it on its own,
// as a lone publish or eviction's lock hold of the cache does, handing
// Commit the store's state with the record applied, as the cache would.
func publishOne(s *Store, version uint64, frames []int, scores []float64) error {
	if err := s.AppendPublish(version, frames, scores); err != nil {
		return err
	}
	m, _ := s.Recovered()
	return s.Commit(m.SetSorted(frames, scores))
}

func evictOne(s *Store, version uint64, frames []int) error {
	if err := s.AppendEvict(version, frames); err != nil {
		return err
	}
	m, _ := s.Recovered()
	return s.Commit(m.DeleteSorted(frames))
}

// publishN commits n publish batches, batch i (1-based version) holding
// frames {10i, 10i+1} with scores derived from the frame.
func publishN(t *testing.T, s *Store, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		frames := []int{10 * i, 10*i + 1}
		scores := []float64{float64(10 * i), float64(10*i + 1)}
		if err := publishOne(s, uint64(i), frames, scores); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
}

// stateMap flattens a labelstore.Map for comparison.
func stateMap(m labelstore.Map) map[int]float64 {
	out := make(map[int]float64)
	m.Range(func(f int, v float64) bool {
		out[f] = v
		return true
	})
	return out
}

// wantState returns the expected flattened state after the first n
// publishN batches.
func wantState(n int) map[int]float64 {
	out := make(map[int]float64)
	for i := 1; i <= n; i++ {
		out[10*i] = float64(10 * i)
		out[10*i+1] = float64(10*i + 1)
	}
	return out
}

func assertState(t *testing.T, m labelstore.Map, version uint64, wantN int) {
	t.Helper()
	if version != uint64(wantN) {
		t.Fatalf("version %d, want %d", version, wantN)
	}
	got, want := stateMap(m), wantState(wantN)
	if len(got) != len(want) {
		t.Fatalf("recovered %d labels, want %d", len(got), len(want))
	}
	for f, v := range want {
		if got[f] != v {
			t.Fatalf("frame %d: recovered %v, want %v", f, got[f], v)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	publishN(t, s, 1, 7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, v := r.Recovered()
	assertState(t, m, v, 7)
	// Version continuity: the reopened store accepts exactly version 8.
	if err := publishOne(r, 9, []int{1}, []float64{1}); err == nil {
		t.Fatal("version gap accepted")
	}
	if err := publishOne(r, 8, []int{80}, []float64{80}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreEvictionReplays(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	publishN(t, s, 1, 3) // versions 1..3
	if err := evictOne(s, 4, []int{10, 11}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, v := r.Recovered()
	if v != 4 {
		t.Fatalf("version %d, want 4", v)
	}
	got := stateMap(m)
	if _, ok := got[10]; ok {
		t.Fatal("evicted frame 10 resurrected by replay")
	}
	if len(got) != 4 {
		t.Fatalf("recovered %d labels, want 4 (batches 2,3)", len(got))
	}
}

func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	publishN(t, s, 1, 5)
	s.Close()

	// Tear the active segment: chop bytes off its end, then smear a few
	// garbage bytes — a torn append.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte{}, data[:len(data)-9]...)
	torn = append(torn, 0xde, 0xad)
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, v := r.Recovered()
	assertState(t, m, v, 4) // record 5 torn, 1..4 intact
	// The tail was physically truncated: reopening again finds a clean log.
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(torn)) == fi.Size() {
		t.Fatal("torn tail not truncated")
	}
}

func TestStoreCorruptMidSegmentDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates into its own segment.
	s, err := Open(dir, Options{SegmentBytes: 1, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	publishN(t, s, 1, 5)
	s.Close()

	// Flip a payload byte in segment 2 (record with version 2).
	seg := filepath.Join(dir, segName(2))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, v := r.Recovered()
	assertState(t, m, v, 1) // consistent prefix ends before the corruption
	// Segments past the corruption are unreachable and must be gone.
	for seq := uint64(3); seq <= 5; seq++ {
		if _, err := os.Stat(filepath.Join(dir, segName(seq))); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("unreachable segment %d survived recovery", seq)
		}
	}
}

func TestStoreCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	publishN(t, s, 1, 10) // checkpoints at v4 and v8
	s.Close()

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts, segs := 0, 0
	for _, e := range names {
		if strings.HasSuffix(e.Name(), ckptSuffix) {
			ckpts++
		}
		if strings.HasSuffix(e.Name(), segSuffix) {
			segs++
		}
	}
	if ckpts != 2 {
		t.Fatalf("%d checkpoints on disk, want the newest 2", ckpts)
	}
	if segs != 1 {
		t.Fatalf("%d segments on disk, want 1 (WAL truncated at checkpoint)", segs)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, v := r.Recovered()
	assertState(t, m, v, 10)
}

func TestStoreCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	publishN(t, s, 1, 7) // checkpoints at v3 and v6; records 7 in WAL
	s.Close()

	// Corrupt the newest checkpoint (v6). Recovery must fall back to v3
	// — but records 4..7 were truncated at the v6 checkpoint, so the
	// consistent prefix is v3: stale, but a prefix, never garbage.
	data, err := os.ReadFile(filepath.Join(dir, ckptName(6)))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, ckptName(6)), data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, v := r.Recovered()
	if v != 3 {
		t.Fatalf("recovered version %d, want fallback checkpoint 3", v)
	}
}

func TestStoreAdopt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var warm labelstore.Map
	warm = warm.Set(5, 50).Set(9, 90)
	if err := s.Adopt(warm, 12); err != nil {
		t.Fatal(err)
	}
	if err := publishOne(s, 13, []int{20}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, v := r.Recovered()
	if v != 13 || m.Len() != 3 {
		t.Fatalf("adopted store recovered v%d with %d labels, want v13 / 3", v, m.Len())
	}
	// A store that already holds state refuses a second adoption.
	if err := r.Adopt(warm, 2); err == nil {
		t.Fatal("non-empty store accepted Adopt")
	}
	r.Close()
}

func TestStoreGarbageDirectoryNeverPanics(t *testing.T) {
	dir := t.TempDir()
	// A garbage segment, a garbage checkpoint, a foreign file and a
	// stale temp: recovery must shrug all of them off.
	files := map[string][]byte{
		segName(1):              []byte("not a wal segment at all"),
		ckptName(9):             []byte("EVCKPT01 but not really"),
		"README.txt":            []byte("hello"),
		ckptName(3) + tmpSuffix: make([]byte, 100),
		segName(2):              {},
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, v := s.Recovered()
	if v != 0 || m.Len() != 0 {
		t.Fatalf("garbage directory recovered v%d / %d labels, want empty", v, m.Len())
	}
	// And the store still works.
	if err := publishOne(s, 1, []int{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendRejectsUnsortedFrames feeds the writer batches it must not
// encode — unsorted, duplicate, negative, and a publish whose scores do
// not match its frames — and checks each is refused with nothing
// written and the version unchanged, so the next valid record still
// lands at the expected version and recovery keeps every record.
func TestAppendRejectsUnsortedFrames(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	publishN(t, s, 1, 2)
	size := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := size()
	bad := map[string]func() error{
		"unsorted publish":  func() error { return s.AppendPublish(3, []int{7, 3}, []float64{1, 2}) },
		"duplicate publish": func() error { return s.AppendPublish(3, []int{3, 3}, []float64{1, 2}) },
		"negative publish":  func() error { return s.AppendPublish(3, []int{-1, 3}, []float64{1, 2}) },
		"short scores":      func() error { return s.AppendPublish(3, []int{3, 4}, []float64{1}) },
		"unsorted evict":    func() error { return s.AppendEvict(3, []int{21, 20}) },
		"duplicate evict":   func() error { return s.AppendEvict(3, []int{20, 20}) },
	}
	for name, fn := range bad {
		if err := fn(); err == nil {
			t.Fatalf("%s accepted", name)
		}
		if _, v := s.Recovered(); v != 2 || size() != before {
			t.Fatalf("%s: version %d and segment %d bytes after a rejected append, want 2 and %d",
				name, v, size(), before)
		}
	}
	m, _ := s.Recovered()
	if err := s.Commit(m); err != nil || size() != before {
		t.Fatalf("a commit after rejected appends: %v, segment %d bytes, want nothing staged and %d", err, size(), before)
	}
	// A rejected batch latched no sticky error: the next valid appends
	// are accepted.
	publishN(t, s, 3, 2)
	s.Close()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, v := r.Recovered()
	assertState(t, m, v, 4)
}

// TestDecodersRejectDuplicateFrames: no writer emits a zero frame gap
// after the first frame, so both decoders treat one as corruption.
func TestDecodersRejectDuplicateFrames(t *testing.T) {
	rec := appendRecord(nil, Record{Type: recPublish, Version: 1, Frames: []int{3, 3}, Scores: []float64{1, 2}})
	if _, _, err := decodeRecord(rec, 0); err == nil {
		t.Fatal("WAL record with a duplicate frame decoded")
	}
	if _, _, err := decodeCheckpoint(checkpointBytes(5, []int{4, 0}, []float64{1, 2})); err == nil {
		t.Fatal("checkpoint with a duplicate frame decoded")
	}
	if _, _, err := decodeCheckpoint(checkpointBytes(5, []int{4, 1}, []float64{1, 2})); err != nil {
		t.Fatalf("valid hand-built checkpoint rejected: %v", err)
	}
}

// checkpointBytes builds a checkpoint from raw frame deltas, so a test
// can write one no encoder would.
func checkpointBytes(version uint64, deltas []int, scores []float64) []byte {
	buf := append([]byte(nil), ckptMagic[:]...)
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendUvarint(buf, uint64(len(deltas)))
	for i, d := range deltas {
		buf = binary.AppendUvarint(buf, uint64(d))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(scores[i]))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestStoreReplayAppliesOverwritesInOrder: a frame republished in every
// batch recovers with its last score. With one record per segment, the
// replay must apply segments in version order, not in directory order
// or by first write.
func TestStoreReplayAppliesOverwritesInOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 1, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 12; v++ {
		if err := publishOne(s, uint64(v), []int{7, 100 + v}, []float64{float64(v) / 8, float64(v)}); err != nil {
			t.Fatalf("publish %d: %v", v, err)
		}
	}
	s.Close()

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, v := r.Recovered()
	if v != 12 {
		t.Fatalf("recovered version %d, want 12", v)
	}
	got := stateMap(m)
	if len(got) != 13 {
		t.Fatalf("recovered %d labels, want 13", len(got))
	}
	if got[7] != 1.5 {
		t.Fatalf("frame 7 recovered with score %v, want its last write 1.5", got[7])
	}
}

// TestStoreEvictionSurvivesCheckpoint: an eviction before a checkpoint
// stays in force through the checkpoint, one after it is replayed from
// the WAL tail, and a frame republished after its eviction comes back.
func TestStoreEvictionSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	steps := []func(v uint64) error{
		func(v uint64) error { return publishOne(s, v, []int{1, 2, 3}, []float64{1, 2, 3}) },
		func(v uint64) error { return evictOne(s, v, []int{2}) },
		func(v uint64) error { return publishOne(s, v, []int{4}, []float64{4}) }, // checkpoint at v3
		func(v uint64) error { return evictOne(s, v, []int{1, 3}) },
		func(v uint64) error { return publishOne(s, v, []int{3}, []float64{3.5}) },
	}
	for i, step := range steps {
		if err := step(uint64(i + 1)); err != nil {
			t.Fatalf("record %d: %v", i+1, err)
		}
	}
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, ckptName(3))); err != nil {
		t.Fatalf("no checkpoint at v3, so recovery never starts from one: %v", err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, v := r.Recovered()
	if v != 5 {
		t.Fatalf("recovered version %d, want 5", v)
	}
	got := stateMap(m)
	want := map[int]float64{3: 3.5, 4: 4}
	if len(got) != len(want) || got[3] != want[3] || got[4] != want[4] {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}
