package faultinject

import (
	"errors"
	"testing"

	"github.com/everest-project/everest/internal/durable"
	"github.com/everest-project/everest/internal/labelstore"
)

// writeHistory runs a fixed publish/evict sequence against a store on
// the given FS, each commit handed the state its record leaves, as a
// cache would. Version i of the sequence is: publishes 1..6, then one
// eviction of the first batch's frames at version 7.
func writeHistory(fs durable.FS, dir string) error {
	s, err := durable.Open(dir, durable.Options{FS: fs, CheckpointEvery: 3})
	if err != nil {
		return err
	}
	defer s.Close()
	var labels labelstore.Map
	for i := 1; i <= 6; i++ {
		frames, scores := []int{10 * i, 10*i + 1}, []float64{1, 2}
		if err := s.AppendPublish(uint64(i), frames, scores); err != nil {
			return err
		}
		labels = labels.SetSorted(frames, scores)
		if err := s.Commit(labels); err != nil {
			return err
		}
	}
	if err := s.AppendEvict(7, []int{10, 11}); err != nil {
		return err
	}
	return s.Commit(labels.DeleteSorted([]int{10, 11}))
}

// TestFaultFSDeterministicOps: the same workload against the same
// schedule consumes the same op count and tears at the same offset —
// the crash clock is a pure function of the write history.
func TestFaultFSDeterministicOps(t *testing.T) {
	count := func() int {
		fs := NewFaultFS(durable.OSFS{}, 7)
		if err := writeHistory(fs, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		return fs.Stats().Ops
	}
	a, b := count(), count()
	if a != b || a == 0 {
		t.Fatalf("op counts %d vs %d, want equal and positive", a, b)
	}

	// Crash at a mid-history op: identical tear both times.
	tear := func() (int, int) {
		fs := NewFaultFS(durable.OSFS{}, 7).CrashAt(4)
		_ = writeHistory(fs, t.TempDir())
		st := fs.Stats()
		if !st.Crashed {
			t.Fatalf("crash at op 4 of %d never fired", a)
		}
		return st.Ops, st.TornBytes
	}
	ops1, torn1 := tear()
	ops2, torn2 := tear()
	if ops1 != ops2 || torn1 != torn2 {
		t.Fatalf("crash run not deterministic: (%d ops, %d torn) vs (%d ops, %d torn)", ops1, torn1, ops2, torn2)
	}
}

// TestFaultFSCrashIsSticky: after the crash op, every operation —
// mutating or read — fails with ErrCrashed and nothing more reaches
// the disk.
func TestFaultFSCrashIsSticky(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(durable.OSFS{}, 1).CrashAt(0) // dies on MkdirAll
	if _, err := durable.Open(dir, durable.Options{FS: fs}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Open over crashed FS = %v, want ErrCrashed", err)
	}
	if err := fs.MkdirAll(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("MkdirAll after crash = %v", err)
	}
	if _, err := fs.ReadDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("ReadDir after crash = %v", err)
	}
	if _, err := fs.ReadFile(dir + "/x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("ReadFile after crash = %v", err)
	}
	if err := fs.Rename(dir+"/a", dir+"/b"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Rename after crash = %v", err)
	}
}

// TestFaultFSSyncErrIsNonFatal: a failed fsync reports ErrInjectedIO
// once; the store latches it sticky (durability stopped) but the
// process — and the FS — keep working.
func TestFaultFSSyncErrIsNonFatal(t *testing.T) {
	dir := t.TempDir()
	// Op layout for the first commit on a fresh dir: 0 MkdirAll,
	// 1 OpenAppend, 2 Write, 3 Sync.
	fs := NewFaultFS(durable.OSFS{}, 1).SyncErrAt(3)
	s, err := durable.Open(dir, durable.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendPublish(1, []int{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(labelstore.Map{}.Set(1, 1)); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("commit with failed fsync = %v, want ErrInjectedIO", err)
	}
	if m, v := s.Recovered(); v != 0 || m.Len() != 0 {
		t.Fatalf("store holds %d labels at version %d after a failed commit, want the empty version 0", m.Len(), v)
	}
	// The store latched the failure: a later append returns it.
	if !errors.Is(s.AppendPublish(1, []int{2}, []float64{2}), ErrInjectedIO) {
		t.Fatal("sticky error not returned on later appends")
	}
	if fs.Stats().Crashed {
		t.Fatal("non-fatal fault marked the process crashed")
	}
}

// TestFaultFSShortWriteTruncatedOnRecovery: a short write leaves a
// torn record; reopening the directory recovers the consistent prefix
// and physically truncates the tail.
func TestFaultFSShortWriteTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	// Op layout: 0 MkdirAll, 1 OpenAppend, 2 Write, 3 Sync (first
	// commit), 4 Write (second commit — the segment handle stays open).
	fs := NewFaultFS(durable.OSFS{}, 3).ShortWriteAt(4)
	s, err := durable.Open(dir, durable.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	one := labelstore.Map{}.Set(1, 1)
	if err := s.AppendPublish(1, []int{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(one); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPublish(2, []int{2}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	err = s.Commit(one.Set(2, 2))
	if !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("short write surfaced as %v", err)
	}
	s.Close()

	r, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, v := r.Recovered(); v != 1 {
		t.Fatalf("recovered version %d, want 1 (short-written record dropped)", v)
	}
}
