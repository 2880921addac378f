package labelstore_test

import (
	"errors"
	"sync"
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

// TestSnapshotAtRAMOnlyFailsClosed: without a WAL, only the current
// version is resolvable — historical pins fail with a typed error, they
// never rebind to the current labels.
func TestSnapshotAtRAMOnlyFailsClosed(t *testing.T) {
	c := labelstore.NewSharedCache()
	c.Publish(map[int]float64{1: 1})
	v1 := c.Version()
	c.Publish(map[int]float64{2: 2})

	if _, err := c.SnapshotAt(c.Version()); err != nil {
		t.Fatalf("current version: %v", err)
	}
	var verr *labelstore.VersionError
	_, err := c.SnapshotAt(v1)
	if !errors.As(err, &verr) {
		t.Fatalf("historical pin on RAM-only cache = %v, want *VersionError", err)
	}
	if verr.Version != v1 {
		t.Fatalf("VersionError.Version = %d, want %d", verr.Version, v1)
	}
}

// TestSnapshotAtResolvesAcrossCrash is the pinned-version recovery
// contract: a version pinned before a crash resolves to exactly the
// label map it named originally — bit-identical scores — after the WAL
// is replayed into a fresh cache.
func TestSnapshotAtResolvesAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	c := labelstore.NewSharedCache()
	if err := c.EnableDurable(openStore(t, dir, durable.Options{})); err != nil {
		t.Fatal(err)
	}
	if got := c.DurableDir(); got != dir {
		t.Fatalf("DurableDir = %q, want %q", got, dir)
	}

	c.Publish(map[int]float64{10: 0.5, 11: 0.25})
	pinned := c.Version()
	want, err := c.SnapshotAt(pinned)
	if err != nil {
		t.Fatal(err)
	}
	c.Publish(map[int]float64{12: 0.75})
	c.Publish(map[int]float64{10: 0.875}) // overwrites frame 10 later

	// "Crash": abandon the cache, reopen the directory into a fresh one.
	recovered := labelstore.NewSharedCache()
	if err := recovered.EnableDurable(openStore(t, dir, durable.Options{})); err != nil {
		t.Fatal(err)
	}
	if recovered.Version() != c.Version() {
		t.Fatalf("recovered version %d, want %d (continuity)", recovered.Version(), c.Version())
	}
	got, err := recovered.SnapshotAt(pinned)
	if err != nil {
		t.Fatalf("pinned version %d after crash: %v", pinned, err)
	}
	gm, wm := mapOf(got), mapOf(want)
	if len(gm) != len(wm) {
		t.Fatalf("pinned snapshot has %d labels after crash, %d before", len(gm), len(wm))
	}
	for f, v := range wm {
		if gm[f] != v {
			t.Fatalf("frame %d: %v after crash, %v before", f, gm[f], v)
		}
	}
	if gm[10] != 0.5 {
		t.Fatalf("pinned snapshot sees the later overwrite of frame 10: %v", gm[10])
	}

	// Version continuity: new publishes continue the sequence durably.
	recovered.Publish(map[int]float64{20: 2})
	if err := recovered.DurableErr(); err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
}

// TestSnapshotAtBeyondHorizonFailsClosed: once checkpointing truncates
// the WAL records behind a version, the pin fails closed with the
// horizon in the error — it never resolves to a nearby state.
func TestSnapshotAtBeyondHorizonFailsClosed(t *testing.T) {
	dir := t.TempDir()
	c := labelstore.NewSharedCache()
	if err := c.EnableDurable(openStore(t, dir, durable.Options{CheckpointEvery: 3})); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		c.Publish(map[int]float64{i: float64(i)})
	}
	// Checkpoints landed at v3 and v6, truncating records 1..6; v1 and v2
	// predate the oldest surviving checkpoint.
	var verr *labelstore.VersionError
	if _, err := c.SnapshotAt(2); !errors.As(err, &verr) {
		t.Fatalf("truncated version = %v, want *VersionError", err)
	}
	if verr.Oldest == 0 || verr.Newest != 7 {
		t.Fatalf("horizon [%d,%d], want oldest > 0, newest 7", verr.Oldest, verr.Newest)
	}
	if _, err := c.SnapshotAt(6); err != nil {
		t.Fatalf("checkpointed version 6: %v", err)
	}
}

// TestEnableDurableWarmCacheAdopts: a cache that already holds labels
// becomes durable by installing its state as the store baseline, and
// its pre-attach version remains resolvable.
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
	if m, err := recovered.SnapshotAt(2); err != nil || m.Len() != 2 {
		t.Fatalf("baseline version: %v (len %d)", err, m.Len())
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

// TestSnapshotAtDoesNotHoldCacheLock: historical resolution replays the
// on-disk log without holding the cache mutex, so publishes proceed
// concurrently — run under -race, this locks the locking discipline.
func TestSnapshotAtDoesNotHoldCacheLock(t *testing.T) {
	dir := t.TempDir()
	c := labelstore.NewSharedCache()
	if err := c.EnableDurable(openStore(t, dir, durable.Options{CheckpointEvery: -1})); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		c.Publish(map[int]float64{i: float64(i)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g%2 == 0 {
					if _, err := c.SnapshotAt(uint64(1 + i%8)); err != nil {
						t.Errorf("SnapshotAt: %v", err)
						return
					}
				} else {
					c.Publish(map[int]float64{100*g + i: float64(i)})
				}
			}
		}(g)
	}
	wg.Wait()
	if err := c.DurableErr(); err != nil {
		t.Fatal(err)
	}
}
