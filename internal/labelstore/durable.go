package labelstore

import "fmt"

// WAL is the durability hook a SharedCache logs through when durable
// mode is enabled (internal/durable.Store implements it; the interface
// lives here so labelstore does not depend on the storage layer).
//
// One lock hold of the cache that changes its version — a Publish, and
// the eviction pass it may trigger, or a TightenPolicy's eviction — is
// one commit. Each version bump stages one record (AppendPublish,
// AppendEvict), after the cache has applied the operation, and the hold
// ends with one Commit, still under the cache lock: by the time any
// other goroutine can observe a version, every record of its commit is
// on disk (per the store's sync policy), and the log marks where the
// commit ends so recovery lands only on versions that could have been
// observed. Versions arrive strictly contiguously: one staged record
// per version bump, in order.
type WAL interface {
	// Dir identifies the backing directory (idempotent-attach checks).
	Dir() string
	// AppendPublish stages the publish batch that produced version.
	// Frames are sorted ascending, parallel to scores. The slices stay
	// unchanged until Commit returns, so a WAL may keep them, uncopied,
	// until then.
	AppendPublish(version uint64, frames []int, scores []float64) error
	// AppendEvict stages the eviction pass that produced version.
	// Frames are sorted ascending and, like a publish's, unchanged until
	// Commit returns.
	AppendEvict(version uint64, frames []int) error
	// Commit makes the records staged since the last Commit durable as
	// one unit, or does nothing when none is staged. labels is the
	// cache's state after those records; a Map is immutable, so a WAL
	// may keep it as its own state.
	Commit(labels Map) error
	// Adopt installs a warm cache's current state as the store baseline
	// (only valid on a store with no recovered state); like Commit's, a
	// WAL may keep the Map.
	Adopt(labels Map, version uint64) error
	// Recovered returns the store's state: the one recovered when it was
	// opened, or the last adopted or committed since.
	Recovered() (Map, uint64)
}

// EnableDurable attaches a write-ahead log to the cache. On a cold
// cache (nothing published yet) the store's recovered state is adopted
// — labels AND version counter, so the version sequence continues
// across the restart. On a warm cache the current state is installed
// into the store as a baseline checkpoint instead (only a fresh store
// can accept that). Attaching the same directory twice is a no-op;
// attaching a second, different directory is an error. From the attach
// on, every publish and eviction is committed to the log before its
// version becomes observable.
func (c *SharedCache) EnableDurable(w WAL) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wal != nil {
		if c.wal.Dir() == w.Dir() {
			return nil
		}
		return fmt.Errorf("labelstore: cache already durable in %s; cannot switch to %s", c.wal.Dir(), w.Dir())
	}
	if c.version == 0 && c.labels.Len() == 0 {
		// Cold cache: resume exactly where the durable history ended.
		// Recovered labels carry no publish-batch history, so they are
		// policy-exempt (like pre-cap publishes): the cap governs batches
		// published from here on.
		c.labels, c.version = w.Recovered()
	} else {
		if err := w.Adopt(c.labels, c.version); err != nil {
			return err
		}
	}
	c.wal = w
	return nil
}

// DurableDir returns the attached WAL's directory, or "" when the cache
// is RAM-only.
func (c *SharedCache) DurableDir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wal == nil {
		return ""
	}
	return c.wal.Dir()
}

// DurableErr returns the first WAL append failure, if any. The cache
// keeps serving from RAM after a log failure (availability over
// durability — the prefix logged before the failure is still intact on
// disk), and this surfaces that the durable horizon stopped advancing.
func (c *SharedCache) DurableErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.walErr
}

// logPublish stages a publish with the WAL (caller holds c.mu and has
// already bumped the version). Failures latch into walErr.
func (c *SharedCache) logPublish(version uint64, frames []int, scores []float64) {
	if c.wal == nil {
		return
	}
	c.latch(c.wal.AppendPublish(version, frames, scores))
}

// logEvict stages an eviction pass with the WAL (caller holds c.mu).
func (c *SharedCache) logEvict(version uint64, frames []int) {
	if c.wal == nil {
		return
	}
	c.latch(c.wal.AppendEvict(version, frames))
}

// commit ends a lock hold that staged records: one WAL Commit for all
// of them (caller holds c.mu).
func (c *SharedCache) commit() {
	if c.wal == nil {
		return
	}
	c.latch(c.wal.Commit(c.labels))
}

// latch keeps the first WAL failure in walErr.
func (c *SharedCache) latch(err error) {
	if err != nil && c.walErr == nil {
		c.walErr = err
	}
}
