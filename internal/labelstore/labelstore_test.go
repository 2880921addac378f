package labelstore

import (
	"math/rand"
	"sort"
	"testing"
)

// TestMapMatchesPlainMap drives a persistent Map and a plain Go map
// through the same random operation sequence and checks full
// equivalence after every step: Get on present and absent keys, Len,
// and ascending Range enumeration.
func TestMapMatchesPlainMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var m Map
		ref := make(map[int]float64)
		// Mix of dense small keys (frame-index-like) and sparse large
		// ones that force the trie to grow levels mid-sequence.
		keyRange := []int{32, 1000, 1 << 20}[trial%3]
		for step := 0; step < 400; step++ {
			f := rng.Intn(keyRange)
			v := rng.NormFloat64()
			m = m.Set(f, v)
			ref[f] = v
			if len(ref) != m.Len() {
				t.Fatalf("trial %d step %d: Len %d, want %d", trial, step, m.Len(), len(ref))
			}
			// Spot-check random present/absent lookups each step.
			for probe := 0; probe < 4; probe++ {
				k := rng.Intn(keyRange * 2)
				got, ok := m.Get(k)
				want, wok := ref[k]
				if ok != wok || got != want {
					t.Fatalf("trial %d step %d: Get(%d) = (%v, %v), want (%v, %v)",
						trial, step, k, got, ok, want, wok)
				}
			}
		}
		// Range must enumerate exactly ref, in ascending key order.
		wantKeys := make([]int, 0, len(ref))
		for f := range ref {
			wantKeys = append(wantKeys, f)
		}
		sort.Ints(wantKeys)
		var gotKeys []int
		m.Range(func(f int, v float64) bool {
			if v != ref[f] {
				t.Fatalf("trial %d: Range(%d) = %v, want %v", trial, f, v, ref[f])
			}
			gotKeys = append(gotKeys, f)
			return true
		})
		if len(gotKeys) != len(wantKeys) {
			t.Fatalf("trial %d: Range visited %d keys, want %d", trial, len(gotKeys), len(wantKeys))
		}
		for i := range wantKeys {
			if gotKeys[i] != wantKeys[i] {
				t.Fatalf("trial %d: Range order[%d] = %d, want %d", trial, i, gotKeys[i], wantKeys[i])
			}
		}
	}
}

// TestMapSnapshotIsolation takes snapshots at random points of an
// insert sequence and verifies every snapshot still holds exactly its
// capture-time contents after the map has moved arbitrarily far ahead —
// the O(1)-snapshot property the concurrent serving path rests on.
func TestMapSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type snap struct {
		m   Map
		ref map[int]float64
	}
	var m Map
	ref := make(map[int]float64)
	var snaps []snap
	for step := 0; step < 3000; step++ {
		if step%97 == 0 {
			frozen := make(map[int]float64, len(ref))
			for f, v := range ref {
				frozen[f] = v
			}
			snaps = append(snaps, snap{m: m, ref: frozen})
		}
		f := rng.Intn(1 << 16)
		v := float64(step)
		m = m.Set(f, v)
		ref[f] = v
	}
	for i, s := range snaps {
		if s.m.Len() != len(s.ref) {
			t.Fatalf("snapshot %d: Len %d, want %d", i, s.m.Len(), len(s.ref))
		}
		count := 0
		s.m.Range(func(f int, v float64) bool {
			want, ok := s.ref[f]
			if !ok || v != want {
				t.Fatalf("snapshot %d: entry (%d, %v) not in frozen reference (want %v, present %v)",
					i, f, v, want, ok)
			}
			count++
			return true
		})
		if count != len(s.ref) {
			t.Fatalf("snapshot %d: Range visited %d, want %d", i, count, len(s.ref))
		}
	}
}

// TestMapZeroValueAndNegative locks the edge contract: the zero Map is
// empty and usable, and negative frame indices panic on Set / miss on
// Get.
func TestMapZeroValueAndNegative(t *testing.T) {
	var m Map
	if m.Len() != 0 {
		t.Fatalf("zero Map Len = %d", m.Len())
	}
	if _, ok := m.Get(0); ok {
		t.Fatal("zero Map Get(0) reported a value")
	}
	if _, ok := m.Get(-5); ok {
		t.Fatal("Get(-5) reported a value")
	}
	m.Range(func(int, float64) bool { t.Fatal("zero Map Range visited an entry"); return false })
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) did not panic")
		}
	}()
	m.Set(-1, 1)
}

// TestOverlay checks read-through, write isolation from the base, and
// Fresh extraction.
func TestOverlay(t *testing.T) {
	var base Map
	base = base.Set(3, 0.5).Set(9, 1.5)
	o := NewOverlay(base)
	if v, ok := o.Get(3); !ok || v != 0.5 {
		t.Fatalf("Get(3) = (%v, %v)", v, ok)
	}
	o.Set(4, 2.5)
	o.Set(3, 0.5) // Set always records into fresh, even for base-present keys
	if v, ok := o.Get(4); !ok || v != 2.5 {
		t.Fatalf("Get(4) = (%v, %v)", v, ok)
	}
	if _, ok := base.Get(4); ok {
		t.Fatal("overlay write leaked into the base snapshot")
	}
	fresh := o.Fresh()
	if len(fresh) != 2 || fresh[4] != 2.5 {
		t.Fatalf("Fresh = %v", fresh)
	}

	// A nil overlay reads empty and swallows writes.
	var nilO *Overlay
	if _, ok := nilO.Get(1); ok {
		t.Fatal("nil overlay Get reported a value")
	}
	nilO.Set(1, 1)
	if nilO.Fresh() != nil {
		t.Fatal("nil overlay accumulated state")
	}
}

// TestSharedCacheVersioning checks the versioned-publish contract:
// snapshots pin a version, publishes advance it monotonically, and a
// pinned snapshot never sees later labels.
// TestOverlayRange: Range visits every label once with the score Get
// returns — base labels ascending, a fresh label in place of the base
// one it overrides, then the fresh-only ones — and stops when told.
func TestOverlayRange(t *testing.T) {
	var nilOverlay *Overlay
	nilOverlay.Range(func(int, float64) bool { t.Fatal("a nil overlay has no labels"); return true })
	var base Map
	for _, f := range []int{3, 40, 7, 1000} {
		base = base.Set(f, float64(f))
	}
	o := NewOverlay(base)
	o.Set(40, -1)
	o.Set(5, -2)
	seen := map[int]float64{}
	var order []int
	o.Range(func(f int, v float64) bool {
		if _, dup := seen[f]; dup {
			t.Fatalf("frame %d visited twice", f)
		}
		if want, _ := o.Get(f); v != want {
			t.Fatalf("frame %d visited with %v, Get says %v", f, v, want)
		}
		seen[f] = v
		order = append(order, f)
		return true
	})
	if len(seen) != 5 {
		t.Fatalf("visited %v, want 5 frames", seen)
	}
	if !sort.IntsAreSorted(order[:3]) || order[0] != 3 || order[2] != 1000 {
		t.Fatalf("base labels visited in order %v, want 3 7 1000 first", order)
	}
	calls := 0
	o.Range(func(int, float64) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("Range went on for %d calls after fn returned false", calls)
	}
}

func TestSharedCacheVersioning(t *testing.T) {
	c := NewSharedCache()
	m0, v0 := c.Snapshot()
	if v0 != 0 || m0.Len() != 0 {
		t.Fatalf("fresh cache snapshot = (%d labels, v%d)", m0.Len(), v0)
	}
	if v := c.Publish(nil); v != 0 {
		t.Fatalf("empty publish bumped version to %d", v)
	}
	v1 := c.Publish(map[int]float64{1: 0.5, 2: 1.5})
	if v1 != 1 {
		t.Fatalf("first publish gave version %d", v1)
	}
	m1, got1 := c.Snapshot()
	if got1 != v1 || m1.Len() != 2 {
		t.Fatalf("snapshot after publish = (%d labels, v%d)", m1.Len(), got1)
	}
	c.Publish(map[int]float64{3: 2.5})
	if _, ok := m1.Get(3); ok {
		t.Fatal("pinned snapshot observed a later publish")
	}
	if c.Len() != 3 || c.Version() != 2 {
		t.Fatalf("cache = (%d labels, v%d), want (3, v2)", c.Len(), c.Version())
	}
}

// TestSharedCacheRegistry checks process-wide keying and test reset.
func TestSharedCacheRegistry(t *testing.T) {
	defer ResetForTest()
	ResetForTest()
	a := For("video-a\x00udf-x")
	if For("video-a\x00udf-x") != a {
		t.Fatal("same key returned a different cache")
	}
	if For("video-b\x00udf-x") == a {
		t.Fatal("different key shared a cache")
	}
	ResetForTest()
	if For("video-a\x00udf-x") == a {
		t.Fatal("ResetForTest kept the old cache in the registry")
	}
}
