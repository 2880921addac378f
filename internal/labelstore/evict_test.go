package labelstore

import "testing"

func TestMapDelete(t *testing.T) {
	var m Map
	for i := 0; i < 100; i++ {
		m = m.Set(i*37, float64(i))
	}
	snap := m
	m = m.Delete(37)
	if _, ok := m.Get(37); ok {
		t.Fatal("deleted key still present")
	}
	if m.Len() != 99 {
		t.Fatalf("Len = %d after delete, want 99", m.Len())
	}
	// Snapshots taken before the delete are frozen.
	if v, ok := snap.Get(37); !ok || v != 1 {
		t.Fatalf("delete mutated an earlier snapshot: %v %v", v, ok)
	}
	// Deleting an absent key is a no-op that does not copy.
	before := m
	m = m.Delete(37)
	if m.Len() != 99 || m.root != before.root {
		t.Fatal("absent-key delete changed the map")
	}
	m = m.Delete(-5)
	m = m.Delete(1 << 40)
	if m.Len() != 99 {
		t.Fatal("out-of-range delete changed the count")
	}
	// Remaining keys intact, and the slot can refill.
	for i := 2; i < 100; i++ {
		if v, ok := m.Get(i * 37); !ok || v != float64(i) {
			t.Fatalf("key %d lost after deletes", i*37)
		}
	}
	m = m.Set(37, 42)
	if v, ok := m.Get(37); !ok || v != 42 || m.Len() != 100 {
		t.Fatal("slot did not refill after delete")
	}
}

func publish(c *SharedCache, keys ...int) {
	fresh := make(map[int]float64, len(keys))
	for _, k := range keys {
		fresh[k] = float64(k)
	}
	c.Publish(fresh)
}

func TestSharedCacheMaxLabelsEviction(t *testing.T) {
	c := NewSharedCache()
	c.TightenPolicy(Policy{MaxLabels: 3})
	publish(c, 1, 2) // v1
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	vBefore := c.Version()
	publish(c, 3, 4) // v2 grows to 4 > 3, then the eviction pass (v3) drops batch {1,2}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after eviction, want 2", c.Len())
	}
	snap, v := c.Snapshot()
	if v != vBefore+2 {
		t.Fatalf("version %d, want publish+eviction bumps to %d", v, vBefore+2)
	}
	for _, gone := range []int{1, 2} {
		if _, ok := snap.Get(gone); ok {
			t.Fatalf("evicted label %d still present", gone)
		}
	}
	for _, kept := range []int{3, 4} {
		if _, ok := snap.Get(kept); !ok {
			t.Fatalf("fresh label %d evicted", kept)
		}
	}
}

func TestSharedCacheEvictionKeepsRepublishedLabels(t *testing.T) {
	c := NewSharedCache()
	c.TightenPolicy(Policy{MaxLabels: 2})
	publish(c, 1, 2)
	publish(c, 2, 3) // over budget: batch {1,2} is evicted, but 2 was re-published
	snap, _ := c.Snapshot()
	if _, ok := snap.Get(1); ok {
		t.Fatal("label 1 should be evicted with its batch")
	}
	if _, ok := snap.Get(2); !ok {
		t.Fatal("re-published label 2 must survive its original batch's eviction")
	}
	if _, ok := snap.Get(3); !ok {
		t.Fatal("label 3 lost")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestSharedCacheEvictionLeavesPinnedSnapshotsFrozen(t *testing.T) {
	c := NewSharedCache()
	c.TightenPolicy(Policy{MaxLabels: 1})
	publish(c, 1)
	pinned, pinnedV := c.Snapshot()
	publish(c, 2) // evicts batch {1}
	if _, ok := pinned.Get(1); !ok {
		t.Fatal("eviction reached into a pinned snapshot")
	}
	if pinned.Len() != 1 {
		t.Fatalf("pinned snapshot Len = %d, want 1", pinned.Len())
	}
	if _, v := c.Snapshot(); v == pinnedV {
		t.Fatal("eviction did not advance the version past the pinned one")
	}
}

func TestSharedCacheCapCountsGovernedLabelsOnly(t *testing.T) {
	// Pre-cap (permanent) labels must not count toward MaxLabels:
	// otherwise a cap below their count would thrash every new batch.
	c := NewSharedCache()
	publish(c, 1, 2, 3, 4, 5) // permanent, above the cap below
	c.TightenPolicy(Policy{MaxLabels: 3})
	publish(c, 10, 11)
	publish(c, 12) // governed count 3, not over
	snap, _ := c.Snapshot()
	for _, kept := range []int{10, 11, 12} {
		if _, ok := snap.Get(kept); !ok {
			t.Fatalf("governed label %d thrashed by permanent labels", kept)
		}
	}
	publish(c, 13, 14) // governed count 5 > 3: evict oldest batches
	snap, _ = c.Snapshot()
	for _, gone := range []int{10, 11} {
		if _, ok := snap.Get(gone); ok {
			t.Fatalf("label %d should be evicted", gone)
		}
	}
	for _, kept := range []int{1, 2, 3, 4, 5, 12, 13, 14} {
		if _, ok := snap.Get(kept); !ok {
			t.Fatalf("label %d lost", kept)
		}
	}
}

func TestSharedCachePolicyOnlyGovernsLoggedBatches(t *testing.T) {
	// Labels published before any cap was installed carry no history and
	// are never evicted — installing a cap later must not corrupt them,
	// and the cap applies to publishes from then on.
	c := NewSharedCache()
	publish(c, 1, 2, 3)
	c.TightenPolicy(Policy{MaxLabels: 1})
	publish(c, 4)
	publish(c, 5) // evicts batch {4}; pre-cap labels stay
	snap, _ := c.Snapshot()
	for _, kept := range []int{1, 2, 3, 5} {
		if _, ok := snap.Get(kept); !ok {
			t.Fatalf("label %d lost", kept)
		}
	}
	if _, ok := snap.Get(4); ok {
		t.Fatal("logged batch {4} should be evicted")
	}
}
