package durable_test

import (
	"errors"
	"testing"

	"github.com/everest-project/everest/internal/durable"
	"github.com/everest-project/everest/internal/faultinject"
	"github.com/everest-project/everest/internal/labelstore"
)

// TestStoreKeepsCacheMap: the store's state is the cache's own label
// map, not a copy of it. After a warm Adopt, a publish, a publish that
// evicts and a TightenPolicy eviction, Recovered returns the very Map
// the cache's Snapshot does — the same root, so == holds — at the
// cache's version. A commit whose write fails leaves the store at the
// last durable commit's Map and version while the cache moves on.
func TestStoreKeepsCacheMap(t *testing.T) {
	fs := faultinject.NewFaultFS(durable.OSFS{}, 1)
	s, err := durable.Open(t.TempDir(), durable.Options{FS: fs, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := labelstore.NewSharedCache()
	same := func(what string) {
		t.Helper()
		if err := c.DurableErr(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, wantV := c.Snapshot()
		if got, gotV := s.Recovered(); got != want || gotV != wantV {
			t.Fatalf("%s: the store holds %d labels at version %d, not the cache's own map of %d at %d",
				what, got.Len(), gotV, want.Len(), wantV)
		}
	}
	batch := func(from, n int) map[int]float64 {
		b := make(map[int]float64, n)
		for f := from; f < from+n; f++ {
			b[f] = float64(f) / 4
		}
		return b
	}

	c.Publish(batch(0, 10)) // pre-cap, adopted at attach
	c.TightenPolicy(labelstore.Policy{MaxLabels: 8})
	if err := c.EnableDurable(s); err != nil {
		t.Fatal(err)
	}
	same("a warm Adopt")

	v := c.Version()
	c.Publish(batch(100, 6))
	if c.Version() != v+1 {
		t.Fatalf("the first capped publish took the version from %d to %d, want no eviction", v, c.Version())
	}
	same("a publish")

	v = c.Version()
	c.Publish(batch(200, 6))
	if c.Version() != v+2 {
		t.Fatalf("a publish over the cap took the version from %d to %d, want a publish and an eviction", v, c.Version())
	}
	same("a publish that evicts")

	c.Publish(batch(300, 2)) // fills the cap: no eviction
	v = c.Version()
	c.TightenPolicy(labelstore.Policy{MaxLabels: 4})
	if c.Version() != v+1 {
		t.Fatalf("tightening the cap took the version from %d to %d, want one eviction", v, c.Version())
	}
	same("a TightenPolicy eviction")

	// The segment is open, so the next commit's first op is its write.
	last, lastV := s.Recovered()
	fs.ShortWriteAt(fs.Stats().Ops)
	c.Publish(batch(400, 2))
	if err := c.DurableErr(); !errors.Is(err, faultinject.ErrInjectedIO) {
		t.Fatalf("a publish through a failing write latched %v, want ErrInjectedIO", err)
	}
	if got, gotV := s.Recovered(); got != last || gotV != lastV || gotV == c.Version() {
		t.Fatalf("after a failed write the store holds %d labels at version %d, want the last durable commit's %d at %d (the cache is at %d)",
			got.Len(), gotV, last.Len(), lastV, c.Version())
	}
}
