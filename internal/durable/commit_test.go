package durable

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/labelstore"
)

// countingFS is the real filesystem with every segment file's written
// and synced bytes counted, and its Syncs.
type countingFS struct {
	OSFS
	segs  []*countedFile
	syncs int
}

type countedFile struct {
	File
	fs              *countingFS
	written, synced int
}

func (c *countingFS) OpenAppend(name string) (File, error) {
	f, err := c.OSFS.OpenAppend(name)
	if err != nil || !strings.HasSuffix(name, segSuffix) {
		return f, err
	}
	cf := &countedFile{File: f, fs: c}
	c.segs = append(c.segs, cf)
	return cf, nil
}

func (f *countedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.written += n
	return n, err
}

func (f *countedFile) Sync() error {
	err := f.File.Sync()
	if err == nil {
		f.synced = f.written
		f.fs.syncs++
	}
	return err
}

// unsynced is how many segment bytes were written and not yet synced.
func (c *countingFS) unsynced() int {
	n := 0
	for _, f := range c.segs {
		n += f.written - f.synced
	}
	return n
}

// TestCommitSyncsBeforeReturn is durability before visibility, counted:
// a capped cache publishes random batches, and tightens its cap once,
// through a store that rotates small segments and checkpoints every
// fifth record. After every Publish and TightenPolicy returns, no
// segment byte is unsynced, and the lock hold cost at most one segment
// Sync — exactly one when it changed the version, so a publish plus
// the eviction it triggered is one sync, not two.
func TestCommitSyncsBeforeReturn(t *testing.T) {
	const frames, publishes = 500, 40
	fs := &countingFS{}
	s, err := Open(t.TempDir(), Options{FS: fs, SegmentBytes: 2000, CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := labelstore.NewSharedCache()
	c.TightenPolicy(labelstore.Policy{MaxLabels: 100})
	if err := c.EnableDurable(s); err != nil {
		t.Fatal(err)
	}
	check := func(what string, before uint64, syncs int) {
		t.Helper()
		if err := c.DurableErr(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := fs.unsynced(); n != 0 {
			t.Fatalf("%s returned with %d segment bytes unsynced", what, n)
		}
		want := 0
		if c.Version() != before {
			want = 1
		}
		if got := fs.syncs - syncs; got != want {
			t.Fatalf("%s took the version from %d to %d with %d segment syncs, want %d", what, before, c.Version(), got, want)
		}
	}
	rng := rand.New(rand.NewSource(9))
	evicting := 0
	for i := 0; i < publishes; i++ {
		before, syncs := c.Version(), fs.syncs
		c.Publish(randomBatch(rng, 40, frames))
		if c.Version() == before+2 {
			evicting++
		}
		check("Publish", before, syncs)
		if i == publishes/2 {
			before, syncs := c.Version(), fs.syncs
			c.TightenPolicy(labelstore.Policy{MaxLabels: 50})
			if c.Version() != before+1 {
				t.Fatalf("tightening the cap took the version from %d to %d, want one eviction", before, c.Version())
			}
			check("TightenPolicy", before, syncs)
		}
	}
	if evicting < publishes/2 || len(fs.segs) < 3 {
		t.Fatalf("%d of %d publishes evicted over %d segments; the check must cover evictions and rotations",
			evicting, publishes, len(fs.segs))
	}
}

// fixtureScript is the history testdata/parentlog holds: a cap of 8
// labels, then 13 publishes of 4 frames each, most of which evict.
func fixtureScript(c *labelstore.SharedCache) {
	c.TightenPolicy(labelstore.Policy{MaxLabels: 8})
	for i := 1; i <= 13; i++ {
		b := make(map[int]float64)
		for j := 0; j < 4; j++ {
			b[(7*i+5*j)%60] = float64(i) + float64(j)/4
		}
		c.Publish(b)
	}
}

// TestLogWithoutCommitMarksReplays: testdata/parentlog was written by
// fixtureScript through a store that wrote each record as a commit of
// its own, with no continuation bits — checkpoints at versions 10 and
// 20, records 21 to 24 over two segments, a publish in one and its
// eviction in the next. It recovers to the state a RAM-only cache
// reaches by the same script, and a cache that resumes from it commits
// a publish and a publish with its eviction on top, so a reopen
// recovers both layouts together.
func TestLogWithoutCommitMarksReplays(t *testing.T) {
	dir := t.TempDir()
	names, err := os.ReadDir("testdata/parentlog")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		data, err := os.ReadFile(filepath.Join("testdata/parentlog", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ref := labelstore.NewSharedCache()
	fixtureScript(ref)
	want, wantV := ref.Snapshot()
	if wantV != 24 {
		t.Fatalf("the fixture's script reaches version %d, want 24", wantV)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, gotV := s.Recovered(); !sameState(got, gotV, want, wantV) {
		t.Fatalf("recovered %d labels at version %d, the script leaves %d at %d", got.Len(), gotV, want.Len(), wantV)
	}
	c := labelstore.NewSharedCache()
	if err := c.EnableDurable(s); err != nil {
		t.Fatal(err)
	}
	c.TightenPolicy(labelstore.Policy{MaxLabels: 2})
	c.Publish(map[int]float64{1: 1, 2: 2, 3: 3})
	c.Publish(map[int]float64{4: 4, 5: 5}) // evicts the batch before
	if err := c.DurableErr(); err != nil {
		t.Fatal(err)
	}
	want, wantV = c.Snapshot()
	if wantV != 27 {
		t.Fatalf("the resumed cache is at version %d, want 27: two publishes and an eviction on top", wantV)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, gotV := r.Recovered(); !sameState(got, gotV, want, wantV) {
		t.Fatalf("after a commit on top, a reopen recovers %d labels at version %d, want %d at %d",
			got.Len(), gotV, want.Len(), wantV)
	}
}
