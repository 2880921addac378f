package labelstore_test

import (
	"fmt"
	"testing"

	"github.com/everest-project/everest/internal/durable"
	"github.com/everest-project/everest/internal/labelstore"
)

func openStore(t *testing.T, dir string, opts durable.Options) *durable.Store {
	t.Helper()
	s, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mapOf(m labelstore.Map) map[int]float64 {
	out := make(map[int]float64)
	m.Range(func(f int, v float64) bool {
		out[f] = v
		return true
	})
	return out
}

// TestRecoveryResumesAcrossCrash is the recovery contract: a fresh
// cache attached to a crashed cache's directory resumes at exactly its
// label map — bit-identical scores, later overwrites included — and
// its version counter, and keeps publishing durably from there.
func TestRecoveryResumesAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	c := labelstore.NewSharedCache()
	if err := c.EnableDurable(openStore(t, dir, durable.Options{})); err != nil {
		t.Fatal(err)
	}
	if got := c.DurableDir(); got != dir {
		t.Fatalf("DurableDir = %q, want %q", got, dir)
	}

	c.Publish(map[int]float64{10: 0.5, 11: 0.25})
	c.Publish(map[int]float64{12: 0.75})
	c.Publish(map[int]float64{10: 0.875}) // overwrites frame 10 later
	want, _ := c.Snapshot()

	// "Crash": abandon the cache, reopen the directory into a fresh one.
	recovered := labelstore.NewSharedCache()
	if err := recovered.EnableDurable(openStore(t, dir, durable.Options{})); err != nil {
		t.Fatal(err)
	}
	if recovered.Version() != c.Version() {
		t.Fatalf("recovered version %d, want %d (continuity)", recovered.Version(), c.Version())
	}
	got, _ := recovered.Snapshot()
	gm, wm := mapOf(got), mapOf(want)
	if len(gm) != len(wm) {
		t.Fatalf("recovered %d labels, crashed cache held %d", len(gm), len(wm))
	}
	for f, v := range wm {
		if gm[f] != v {
			t.Fatalf("frame %d: %v after crash, %v before", f, gm[f], v)
		}
	}
	if gm[10] != 0.875 {
		t.Fatalf("recovered frame 10 = %v, want its later overwrite 0.875", gm[10])
	}

	// Version continuity: new publishes continue the sequence durably.
	recovered.Publish(map[int]float64{20: 2})
	if err := recovered.DurableErr(); err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
}

// TestEnableDurableWarmCacheAdopts: a cache that already holds labels
// becomes durable by installing its state as the store baseline.
func TestEnableDurableWarmCacheAdopts(t *testing.T) {
	dir := t.TempDir()
	c := labelstore.NewSharedCache()
	c.Publish(map[int]float64{1: 1})
	c.Publish(map[int]float64{2: 2})
	if err := c.EnableDurable(openStore(t, dir, durable.Options{})); err != nil {
		t.Fatal(err)
	}
	c.Publish(map[int]float64{3: 3})

	recovered := labelstore.NewSharedCache()
	if err := recovered.EnableDurable(openStore(t, dir, durable.Options{})); err != nil {
		t.Fatal(err)
	}
	if recovered.Version() != 3 || recovered.Len() != 3 {
		t.Fatalf("recovered v%d with %d labels, want v3 with 3", recovered.Version(), recovered.Len())
	}
}

// TestEnableDurableRejectsSecondDir: a cache logs to one directory for
// its lifetime; re-attaching the same dir is a no-op, a different dir
// is an error.
func TestEnableDurableRejectsSecondDir(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	c := labelstore.NewSharedCache()
	sa := openStore(t, dirA, durable.Options{})
	if err := c.EnableDurable(sa); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableDurable(sa); err != nil {
		t.Fatalf("idempotent re-attach: %v", err)
	}
	if err := c.EnableDurable(openStore(t, dirB, durable.Options{})); err == nil {
		t.Fatal("switching durable dirs silently accepted")
	}
}

// TestEvictionLoggedDurably: max-labels evictions bump the version
// and are logged, so replay converges to the post-eviction state
// instead of resurrecting evicted labels.
func TestEvictionLoggedDurably(t *testing.T) {
	dir := t.TempDir()
	c := labelstore.NewSharedCache()
	if err := c.EnableDurable(openStore(t, dir, durable.Options{})); err != nil {
		t.Fatal(err)
	}
	c.TightenPolicy(labelstore.Policy{MaxLabels: 2})
	c.Publish(map[int]float64{1: 1, 2: 2})
	c.Publish(map[int]float64{3: 3, 4: 4}) // evicts batch {1,2}: versions 2 (publish) + 3 (evict)
	if c.Version() != 3 || c.Len() != 2 {
		t.Fatalf("cache at v%d with %d labels, want v3 with 2", c.Version(), c.Len())
	}

	recovered := labelstore.NewSharedCache()
	if err := recovered.EnableDurable(openStore(t, dir, durable.Options{})); err != nil {
		t.Fatal(err)
	}
	if recovered.Version() != 3 || recovered.Len() != 2 {
		t.Fatalf("recovered v%d with %d labels, want v3 with 2", recovered.Version(), recovered.Len())
	}
	m, _ := recovered.Snapshot()
	if _, ok := m.Get(1); ok {
		t.Fatal("evicted frame 1 resurrected by replay")
	}
}

// failingWAL refuses every append and every commit, numbering its
// refusals.
type failingWAL struct{ refusals int }

func (w *failingWAL) Dir() string { return "failing" }
func (w *failingWAL) AppendPublish(version uint64, frames []int, scores []float64) error {
	w.refusals++
	return fmt.Errorf("refusal %d (publish v%d)", w.refusals, version)
}
func (w *failingWAL) AppendEvict(version uint64, frames []int) error {
	w.refusals++
	return fmt.Errorf("refusal %d (evict v%d)", w.refusals, version)
}
func (w *failingWAL) Commit(labelstore.Map) error {
	w.refusals++
	return fmt.Errorf("refusal %d (commit)", w.refusals)
}
func (w *failingWAL) Adopt(labels labelstore.Map, version uint64) error { return nil }
func (w *failingWAL) Recovered() (labelstore.Map, uint64)               { return labelstore.Map{}, 0 }

// TestDurableErrLatchesFirstFailure: when the log refuses a record the
// cache keeps serving from RAM — the publish is visible and the version
// advances — and DurableErr reports the first refusal, not a later one.
func TestDurableErrLatchesFirstFailure(t *testing.T) {
	c := labelstore.NewSharedCache()
	w := &failingWAL{}
	if err := c.EnableDurable(w); err != nil {
		t.Fatal(err)
	}
	if err := c.DurableErr(); err != nil {
		t.Fatalf("DurableErr before any append: %v", err)
	}
	c.Publish(map[int]float64{1: 1})
	c.Publish(map[int]float64{2: 2})
	if w.refusals != 4 {
		t.Fatalf("the log saw %d appends and commits, want 4", w.refusals)
	}
	err := c.DurableErr()
	if err == nil || err.Error() != "refusal 1 (publish v1)" {
		t.Fatalf("DurableErr = %v, want the first refusal", err)
	}
	snap, v := c.Snapshot()
	if v != 2 {
		t.Fatalf("version %d after two publishes, want 2", v)
	}
	if got := mapOf(snap); len(got) != 2 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("snapshot %v, want both publishes served from RAM", got)
	}
}
