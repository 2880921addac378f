package durable

import (
	"math/rand"
	"testing"

	"github.com/everest-project/everest/internal/labelstore"
)

// randomBatch draws a publish batch of 1..maxSize frames in [0, frames)
// with scores on a coarse grid, so later batches re-publish frames with
// new scores.
func randomBatch(rng *rand.Rand, maxSize, frames int) map[int]float64 {
	fresh := make(map[int]float64)
	for n := 1 + rng.Intn(maxSize); len(fresh) < n; {
		fresh[rng.Intn(frames)] = float64(rng.Intn(24)) / 2
	}
	return fresh
}

// TestMirrorEqualsCache: a capped cache that adopted a warm start
// publishes random batches (each evicting older ones once over the cap)
// through a store that checkpoints every third record. After every
// publish the store's labels — as Recovered hands them to a cache, and
// as a reopen of the directory recovers them — equal the cache's
// snapshot label for label, at the cache's version.
func TestMirrorEqualsCache(t *testing.T) {
	const frames, maxLabels, publishes = 600, 120, 40
	dir := t.TempDir()
	opts := Options{FS: noSyncFS{}, CheckpointEvery: 3}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	c := labelstore.NewSharedCache()
	c.Publish(randomBatch(rng, 30, frames)) // pre-cap, adopted at attach
	c.TightenPolicy(labelstore.Policy{MaxLabels: maxLabels})
	if err := c.EnableDurable(s); err != nil {
		t.Fatal(err)
	}
	evictions := 0
	for i := 0; i < publishes; i++ {
		before := c.Version()
		c.Publish(randomBatch(rng, 60, frames))
		if c.Version() == before+2 {
			evictions++
		}
		if err := c.DurableErr(); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		want, wantV := c.Snapshot()
		if got, gotV := s.Recovered(); !sameState(got, gotV, want, wantV) {
			t.Fatalf("publish %d: the store holds %d labels at version %d, the cache %d at %d",
				i, got.Len(), gotV, want.Len(), wantV)
		}
		r, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("publish %d: reopen: %v", i, err)
		}
		got, gotV := r.Recovered()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if !sameState(got, gotV, want, wantV) {
			t.Fatalf("publish %d: reopening recovers %d labels at version %d, the cache holds %d at %d",
				i, got.Len(), gotV, want.Len(), wantV)
		}
	}
	if evictions < publishes/2 {
		t.Fatalf("only %d of %d publishes evicted; the check must cover evictions", evictions, publishes)
	}
}

// TestDurablePublishAllocationBudget: with a store attached, a publish
// and the eviction it triggers allocate no more than the same publishes
// into a RAM-only cache, plus one and a quarter per WAL record — the
// store stages both records in a slice it reuses, encodes the commit
// into a buffer it reuses and keeps the cache's map as its state, so
// logging costs no label copies of its own. The cadence is the default
// one checkpoint per 64 records, whose file operations the per-record
// allowance amortizes: one per record is measured.
func TestDurablePublishAllocationBudget(t *testing.T) {
	const frames, batch, maxLabels, warm, runs = 4000, 96, 400, 20, 50
	rng := rand.New(rand.NewSource(3))
	batches := make([]map[int]float64, warm+runs+1)
	for i := range batches {
		batches[i] = make(map[int]float64, batch)
		for j := 0; j < batch; j++ {
			batches[i][rng.Intn(frames)] = rng.Float64()
		}
	}
	newCache := func(w labelstore.WAL) *labelstore.SharedCache {
		c := labelstore.NewSharedCache()
		c.TightenPolicy(labelstore.Policy{MaxLabels: maxLabels})
		if w != nil {
			if err := c.EnableDurable(w); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range batches[:warm] {
			c.Publish(b)
		}
		return c
	}
	allocs := func(c *labelstore.SharedCache) float64 {
		next := warm
		return testing.AllocsPerRun(runs, func() {
			c.Publish(batches[next])
			next++
		})
	}
	ram := allocs(newCache(nil))

	s, err := Open(t.TempDir(), Options{FS: noSyncFS{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := newCache(s)
	from := c.Version()
	durable := allocs(c)
	if err := c.DurableErr(); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun runs the function once more, unmeasured.
	records := float64(c.Version()-from) / (runs + 1)
	if records < 1.5 {
		t.Fatalf("%.2f records per publish; the budget must cover evictions", records)
	}
	const perRecord = 1.25
	budget := ram + perRecord*records
	t.Logf("%.1f allocs per durable publish+evict, %.1f RAM-only, %.2f records", durable, ram, records)
	if durable > budget {
		t.Fatalf("durable publish+evict allocated %.1f times, budget %.1f (%.1f RAM-only + %.1f × %.2f records)",
			durable, budget, ram, perRecord, records)
	}
}
