// Package durable is the crash-safety layer under the serving state: a
// segment-based, CRC32-checksummed append-only write-ahead log of label
// publishes and evictions, periodic atomic checkpoints, and
// recovery-on-open that reconstructs the newest consistent prefix of
// the logged history.
//
// The paper's §3.5 cost model is explicit that oracle labels are the
// expensive resource; labelstore.SharedCache accumulates exactly those
// labels, and before this package they lived only in RAM — a restart
// re-paid the whole oracle bill. A Store makes the cache's versioned
// history durable the way "FO+MOD queries under updates" frames
// incremental maintenance: recovery does not recompute, it replays a
// log of updates on top of the newest checkpoint.
//
// A commit is what one lock hold of the cache changed: a publish and
// the eviction it triggered, or a tightening's eviction. The cache
// stages each of its records (AppendPublish, AppendEvict) and ends the
// hold with Commit, which writes them with one write and one fsync.
//
// Invariants (locked by the root crash_test.go harness and
// FuzzWALReplay):
//
//   - Atomic commits: a publish or eviction is one WAL record, and a
//     commit a run of them; recovery applies a commit entirely or not at
//     all — never a partial batch, never a publish without the eviction
//     its lock hold made.
//   - Consistent prefix: whatever bytes a crash leaves behind, recovery
//     yields the state after some prefix of the committed operations
//     that ends at a commit boundary — a version some caller could have
//     observed — with the version counter equal to that prefix's length.
//   - Torn-tail truncation: the first corrupt record ends the log; the
//     tail is physically truncated and later segments removed.
//   - Version continuity: the recovered version counter continues where
//     the prefix ended, so version numbers never repeat with different
//     contents.
package durable

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/everest-project/everest/internal/labelstore"
)

// Options configures a Store.
type Options struct {
	// FS is the filesystem the store writes through; nil means the real
	// one (OSFS). The crash-injection harness passes a fault layer.
	FS FS
	// SegmentBytes rotates the active WAL segment once it exceeds this
	// many bytes; 0 means 1 MiB.
	SegmentBytes int
	// CheckpointEvery writes an atomic checkpoint (and truncates the
	// WAL) every this many committed records; 0 means 64, negative
	// disables automatic checkpoints.
	CheckpointEvery int
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 64
	}
	return o
}

// Store is the durable log of one labelstore.SharedCache: it receives
// every publish and eviction (with the version each produced), stages
// them until the cache's Commit, appends each commit to the WAL, keeps
// the committed state for checkpointing, and recovers the newest
// consistent prefix when reopened. It implements labelstore.WAL. Safe
// for concurrent use, though the cache already serializes calls under
// its own lock.
//
// The committed state is the cache's own label map: Commit hands it
// over once its records are on disk, and the store keeps the reference
// (a Map is immutable), so no label is held twice. A commit and a
// checkpoint are encoded into buf and the staged records wait in
// pending; both are the store's own and reused, so committing costs
// what the records hold.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	fs        FS
	labels    labelstore.Map // the state at version, the last commit
	version   uint64
	pending   []Record // staged since the last commit, versions version+1…
	buf       []byte   // encode buffer of the commit or checkpoint being written
	segSeq    uint64   // active segment sequence number
	seg       File     // nil until the first commit after open/rotate
	segBytes  int
	recsSince int   // records committed since the last checkpoint
	sticky    error // first fatal I/O failure; all later ops fail with it
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ck"
	tmpSuffix  = ".tmp"
)

func segName(seq uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix) }
func ckptName(version uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, version, ckptSuffix)
}

// parseSeq extracts the hex sequence from name given its prefix/suffix;
// ok is false for foreign files.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Open opens (creating if needed) the durable store in dir and recovers
// its state: the newest valid checkpoint is loaded, the WAL replayed on
// top of it in version order, and a torn tail truncated at the first
// corrupt record. Open never panics on corrupt input — arbitrary bytes
// in the directory yield a consistent prefix or an error.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{dir: dir, opts: opts, fs: opts.FS}
	if err := s.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: creating %s: %w", dir, err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// path joins dir and a file name.
func (s *Store) path(name string) string { return s.dir + "/" + name }

// listing scans the directory into checkpoint versions (descending) and
// segment sequences (ascending). Temp files and foreign names are
// ignored.
func (s *Store) listing() (ckpts []uint64, segs []uint64, err error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: listing %s: %w", s.dir, err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			continue
		}
		if v, ok := parseSeq(name, ckptPrefix, ckptSuffix); ok {
			ckpts = append(ckpts, v)
		} else if v, ok := parseSeq(name, segPrefix, segSuffix); ok {
			segs = append(segs, v)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return ckpts, segs, nil
}

// loadBase returns the newest checkpoint that validates, or the empty
// version-0 state. Invalid checkpoints are skipped (recovery falls back
// to the next older one); they are swept by the next checkpoint's
// cleanup, not here — recovery mutates nothing but the torn tail.
func (s *Store) loadBase(ckpts []uint64) (map[int]float64, uint64) {
	for _, v := range ckpts {
		data, err := s.fs.ReadFile(s.path(ckptName(v)))
		if err != nil {
			continue
		}
		labels, version, err := decodeCheckpoint(data)
		if err != nil || version != v {
			continue
		}
		return labels, version
	}
	return map[int]float64{}, 0
}

// replay applies segment records to labels and the store's version a
// commit at a time, stopping at the first corrupt or discontinuous
// record, or at a commit its segment does not finish: the log ends
// where that commit began, so the torn tail is truncated there and the
// unreachable later segments removed. Records at or below the starting
// version are stale segments' leftovers and are skipped.
func (s *Store) replay(segs []uint64, labels map[int]float64) error {
	var commit []Record // the open commit's records
	for si, seq := range segs {
		name := s.path(segName(seq))
		data, err := s.fs.ReadFile(name)
		if err != nil {
			return fmt.Errorf("durable: reading %s: %w", name, err)
		}
		off, start := 0, 0 // start: where the open commit began
		for off < len(data) {
			if len(commit) == 0 {
				start = off
			}
			rec, next, err := decodeRecord(data, off)
			if err == nil && len(commit) == 0 && rec.Version <= s.version {
				off = next
				continue
			}
			// A version gap means the contiguous history ends here:
			// whatever produced this record, the records before it are
			// gone, so it is unreachable — same treatment as corruption.
			if err != nil || rec.Version != s.version+uint64(len(commit))+1 {
				return s.cut(name, start, segs[si+1:])
			}
			commit = append(commit, rec)
			off = next
			if !rec.More {
				for _, r := range commit {
					fold(labels, r)
				}
				s.version = rec.Version
				commit = commit[:0]
			}
		}
		if len(commit) > 0 {
			return s.cut(name, start, segs[si+1:])
		}
	}
	return nil
}

// cut ends the log at off in segment name — the torn tail truncated
// and every later segment removed: they lie beyond the first corruption
// and are therefore not part of the consistent prefix.
func (s *Store) cut(name string, off int, later []uint64) error {
	if err := s.fs.Truncate(name, int64(off)); err != nil {
		return fmt.Errorf("durable: truncating torn tail of %s: %w", name, err)
	}
	for _, seq := range later {
		if err := s.fs.Remove(s.path(segName(seq))); err != nil {
			return fmt.Errorf("durable: removing unreachable segment: %w", err)
		}
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("durable: syncing %s: %w", s.dir, err)
	}
	return nil
}

// recover loads the newest valid checkpoint and replays the WAL. The
// replay folds each record into a plain map, in place, and the store's
// Map is built from it once at the end: replaying into the persistent
// trie record by record would path-copy per record.
func (s *Store) recover() error {
	ckpts, segs, err := s.listing()
	if err != nil {
		return err
	}
	labels, version := s.loadBase(ckpts)
	s.version = version
	if err := s.replay(segs, labels); err != nil {
		return err
	}
	s.labels = trieOf(labels)
	if n := len(segs); n > 0 {
		s.segSeq = segs[n-1] + 1
	} else {
		s.segSeq = 1
	}
	return nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Recovered returns the store's state — recovered at Open, or adopted
// or committed since — as the label map and the version counter a cache
// resumes from. The map is the one the last commit or Adopt handed in.
func (s *Store) Recovered() (labelstore.Map, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.labels, s.version
}

// AppendPublish stages one publish batch as the record that produced
// version, for the next Commit. Frames must be non-negative and strictly
// ascending (labelstore publishes in sorted fold order), parallel to
// scores; version must be exactly one past the last staged or committed
// one. The store keeps the slices, uncopied, until Commit.
func (s *Store) AppendPublish(version uint64, frames []int, scores []float64) error {
	return s.stage(Record{Type: recPublish, Version: version, Frames: frames, Scores: scores})
}

// AppendEvict stages one eviction pass as the record that produced
// version. Frames must be non-negative and strictly ascending.
func (s *Store) AppendEvict(version uint64, frames []int) error {
	return s.stage(Record{Type: recEvict, Version: version, Frames: frames})
}

// stage validates continuity and the record's frames and queues it for
// the next Commit. A record that fails validation is not staged. Once
// an I/O failure has latched, every staging call returns it: the
// in-RAM cache stays available, but durability has stopped at a known
// prefix.
func (s *Store) stage(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sticky != nil {
		return s.sticky
	}
	if last := s.version + uint64(len(s.pending)); rec.Version != last+1 {
		return fmt.Errorf("durable: version discontinuity: appending %d onto %d", rec.Version, last)
	}
	if err := rec.validate(); err != nil {
		return err
	}
	s.pending = append(s.pending, rec)
	return nil
}

// Commit writes the records staged since the last commit to the active
// segment as one commit — one write, one fsync — then keeps labels, the
// cache's state after those records, as the store's own and runs the
// checkpoint cadence. With nothing staged it does nothing. A failed
// write or sync latches the sticky error and drops the staged records,
// keeping the last durable commit's state: recovery ends the log before
// a commit it finds cut short.
func (s *Store) Commit(labels labelstore.Map) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return nil
	}
	err := s.commitLocked(labels)
	clear(s.pending) // the caller's slices
	s.pending = s.pending[:0]
	return err
}

// commitLocked encodes and writes the staged records, every one but
// the last marked as continued, syncs the segment and takes labels as
// the state at the last record's version. Caller holds s.mu.
func (s *Store) commitLocked(labels labelstore.Map) error {
	if s.seg == nil {
		seg, err := s.fs.OpenAppend(s.path(segName(s.segSeq)))
		if err != nil {
			return s.fail(fmt.Errorf("durable: opening segment: %w", err))
		}
		s.seg = seg
		s.segBytes = 0
	}
	s.buf = s.buf[:0]
	for i, rec := range s.pending {
		rec.More = i < len(s.pending)-1
		s.buf = appendRecord(s.buf, rec)
	}
	if _, err := s.seg.Write(s.buf); err != nil {
		return s.fail(fmt.Errorf("durable: appending records: %w", err))
	}
	if err := s.seg.Sync(); err != nil {
		return s.fail(fmt.Errorf("durable: syncing segment: %w", err))
	}
	s.labels, s.version = labels, s.pending[len(s.pending)-1].Version
	s.segBytes += len(s.buf)
	s.recsSince += len(s.pending)
	if s.segBytes >= s.opts.SegmentBytes {
		s.rotateLocked()
	}
	return s.maybeCheckpointLocked()
}

// trieOf builds the Map holding labels: one SetSorted over its frames,
// sorted ascending.
func trieOf(labels map[int]float64) labelstore.Map {
	frames := make([]int, 0, len(labels))
	for f := range labels {
		frames = append(frames, f)
	}
	slices.Sort(frames)
	scores := make([]float64, len(frames))
	for i, f := range frames {
		scores[i] = labels[f]
	}
	return labelstore.Map{}.SetSorted(frames, scores)
}

// fold applies a replayed record to labels in place.
func fold(labels map[int]float64, rec Record) {
	if rec.Type == recPublish {
		for i, f := range rec.Frames {
			labels[f] = rec.Scores[i]
		}
	} else {
		for _, f := range rec.Frames {
			delete(labels, f)
		}
	}
}

// fail records the first fatal error and returns it.
func (s *Store) fail(err error) error {
	if s.sticky == nil {
		s.sticky = err
	}
	return s.sticky
}

// rotateLocked closes the active segment and directs future appends at
// the next one. Caller holds s.mu.
func (s *Store) rotateLocked() {
	if s.seg != nil {
		_ = s.seg.Close()
		s.seg = nil
	}
	s.segSeq++
	s.segBytes = 0
}

// maybeCheckpointLocked runs the automatic checkpoint cadence.
func (s *Store) maybeCheckpointLocked() error {
	if s.opts.CheckpointEvery <= 0 || s.recsSince < s.opts.CheckpointEvery {
		return nil
	}
	return s.checkpointLocked()
}

// Checkpoint forces an atomic checkpoint of the state at the last
// commit and truncates the WAL behind it; records staged since stay
// staged, for the next Commit.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sticky != nil {
		return s.sticky
	}
	return s.checkpointLocked()
}

// checkpointLocked writes the committed state atomically — temp
// file, fsync, rename, directory fsync — then rotates the WAL and
// removes the segments and older checkpoints the new one supersedes.
// The deletions run only after the rename is durable, so a crash at any
// point leaves either the old recovery chain or the new one intact.
// Caller holds s.mu.
func (s *Store) checkpointLocked() error {
	final := s.path(ckptName(s.version))
	tmp := final + tmpSuffix
	f, err := s.fs.Create(tmp)
	if err != nil {
		return s.fail(fmt.Errorf("durable: creating checkpoint temp: %w", err))
	}
	s.buf = appendCheckpoint(s.buf[:0], s.labels, s.version)
	_, werr := f.Write(s.buf)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return s.fail(fmt.Errorf("durable: writing checkpoint: %w", werr))
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		return s.fail(fmt.Errorf("durable: publishing checkpoint: %w", err))
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return s.fail(fmt.Errorf("durable: syncing checkpoint: %w", err))
	}
	s.recsSince = 0
	// The WAL behind the checkpoint is now redundant: every record in
	// every existing segment is ≤ the checkpointed version (appends and
	// checkpoints serialize under s.mu). Rotate so new records land in a
	// fresh segment, then sweep. Sweep failures are fatal-sticky like any
	// other I/O failure; a crash mid-sweep just leaves stale files that
	// recovery skips by version.
	s.rotateLocked()
	ckpts, segs, err := s.listing()
	if err != nil {
		return s.fail(err)
	}
	kept := 0
	for _, v := range ckpts { // descending
		kept++
		if kept <= 2 { // newest two: belt and braces against a bad disk
			continue
		}
		if err := s.fs.Remove(s.path(ckptName(v))); err != nil {
			return s.fail(fmt.Errorf("durable: sweeping old checkpoint: %w", err))
		}
	}
	for _, seq := range segs {
		if seq < s.segSeq {
			if err := s.fs.Remove(s.path(segName(seq))); err != nil {
				return s.fail(fmt.Errorf("durable: sweeping old segment: %w", err))
			}
		}
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return s.fail(fmt.Errorf("durable: syncing sweep: %w", err))
	}
	return nil
}

// Adopt installs (labels, version) as the store's baseline — the warm-
// cache attach path, where a cache that already holds published state
// becomes durable. Only an empty store (fresh directory, no recovered
// state) can adopt: adopting over existing durable history would let
// the version counter regress, breaking the continuity rule. The store
// keeps labels as its state, uncopied.
func (s *Store) Adopt(labels labelstore.Map, version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sticky != nil {
		return s.sticky
	}
	if s.version != 0 || s.labels.Len() != 0 || len(s.pending) != 0 {
		return fmt.Errorf("durable: %s already holds state at version %d; cannot adopt a different cache", s.dir, s.version)
	}
	s.labels, s.version = labels, version
	return s.checkpointLocked()
}

// Close closes the active segment handle. Every commit is already
// durable; Close is hygiene, not a flush, and writes no staged record.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg != nil {
		err := s.seg.Close()
		s.seg = nil
		return err
	}
	return nil
}
