package everest

import (
	"fmt"
	"sync"

	"github.com/everest-project/everest/internal/durable"
	"github.com/everest-project/everest/internal/labelstore"
)

// durableReg is the process-wide table of open durable stores, one per
// directory: every session pointing a query at the same DurableDir logs
// through one store (and one segment file handle), and a directory is
// bound to exactly one label cache — attaching a second cache to it is
// an error, because a WAL of (frame, score) records is only meaningful
// against the one (video, UDF) timeline that produced it.
var durableReg = struct {
	mu sync.Mutex
	m  map[string]*durableEntry
}{m: make(map[string]*durableEntry)}

type durableEntry struct {
	store *durable.Store
	cache *labelstore.SharedCache
}

// ensureDurable makes the session's label cache durable in dir: it
// opens (or reuses) the store, recovering whatever consistent prefix a
// previous process left behind, and attaches it to the cache. A cold
// cache resumes the recovered labels AND version counter; a warm cache
// installs its current state as the store's baseline. Idempotent per
// (cache, dir); a cache already durable elsewhere, or a directory
// already bound to a different cache, is an error.
func ensureDurable(cache *labelstore.SharedCache, dir string) error {
	if dir == "" {
		return nil
	}
	if cache.DurableDir() == dir {
		return nil
	}
	durableReg.mu.Lock()
	defer durableReg.mu.Unlock()
	e, ok := durableReg.m[dir]
	if !ok {
		store, err := durable.Open(dir, durable.Options{})
		if err != nil {
			return fmt.Errorf("everest: opening durable state: %w", err)
		}
		e = &durableEntry{store: store}
		durableReg.m[dir] = e
	}
	if e.cache != nil && e.cache != cache {
		return fmt.Errorf("everest: durable dir %s already serves a different label cache", dir)
	}
	if err := cache.EnableDurable(e.store); err != nil {
		return err
	}
	e.cache = cache
	return nil
}

// closeDurableForTest closes and forgets the store open in dir — the
// process-exit half of a crash/restart simulation. Tests pair it with
// labelstore.ResetForTest; production code has no reason to call it
// (stores live for the process, like the caches they log).
func closeDurableForTest(dir string) {
	durableReg.mu.Lock()
	defer durableReg.mu.Unlock()
	if e, ok := durableReg.m[dir]; ok {
		_ = e.store.Close()
		delete(durableReg.m, dir)
	}
}

// EnableDurable makes the session's label cache crash-safe in dir
// without waiting for a query to carry Config.DurableDir: the
// directory's surviving history is recovered into the cache (visible
// through CachedLabels/CacheVersion before any query runs), and every
// label published from now on is logged before its version becomes
// observable. Idempotent for the same directory; see Config.DurableDir
// for the binding rules.
func (s *Session) EnableDurable(dir string) error {
	if dir == "" {
		return fmt.Errorf("everest: EnableDurable needs a directory")
	}
	return ensureDurable(s.cache, dir)
}

// DurableErr reports the first write-ahead-log failure of the session's
// label cache, if any. The cache keeps serving from RAM after a log
// failure — availability over durability — but the on-disk horizon
// stops advancing at the last durable version; a serving deployment
// should surface this the way it surfaces a failed disk. Nil for
// RAM-only sessions and healthy durable ones.
func (s *Session) DurableErr() error {
	return s.cache.DurableErr()
}

// DurableDir returns the directory the session's label cache logs to,
// or "" when the session is RAM-only.
func (s *Session) DurableDir() string {
	return s.cache.DurableDir()
}
