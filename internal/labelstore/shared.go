package labelstore

import (
	"context"
	"sort"
	"sync"
)

// SharedCache is a versioned label store many sessions read and
// publish into concurrently. Reads are O(1) snapshots of an immutable
// Map; publishes fold a query's fresh labels in under a short lock and
// bump the version.
//
// Determinism contract (see DESIGN.md, "Serving layer"): a query pins
// one version when it snapshots and never observes later publishes, so
// its result is a deterministic function of (pinned snapshot, Config).
// Publishes are monotone — labels are only ever added, and an exact
// frame score is query-independent, so the store's content at version
// v is the same set of labels no matter which interleaving of
// publishes produced it; only the version number at which a given
// label appears depends on arrival order.
type SharedCache struct {
	mu      sync.Mutex
	labels  Map
	version uint64

	// Admission control: inflight counts oracle-heavy units (a lone
	// query or one QueryBatch) currently running against this cache;
	// admit blocks while inflight ≥ the caller's limit.
	cond     *sync.Cond
	inflight int

	// Eviction policy state: pubs logs publish batches (kept only once
	// a cap is installed, so the unbounded-cache fast path records
	// nothing), and lastPub maps a frame to the sequence number of the
	// newest logged publish that contained it.
	policy  Policy
	pubs    []publishRecord
	lastPub map[int]uint64
	pubSeq  uint64

	// Durability hook (nil for RAM-only caches): every publish and
	// eviction is staged, with the version it produced, and each lock
	// hold that changed the version ends with one commit, before the
	// version becomes observable outside the lock. walErr latches the
	// first log failure — the cache then keeps serving from RAM with a
	// frozen durable horizon. See durable.go.
	wal    WAL
	walErr error

	// attachment is the serving layer's per-cache singleton slot (the
	// coalescing scheduler); tying it to the cache gives it exactly the
	// cache's lifetime — when a registry drops the cache, whatever was
	// attached goes with it.
	attachment any
}

// Attachment returns the cache's singleton attachment, creating it
// with mk on first use. mk must not call back into the cache.
func (c *SharedCache) Attachment(mk func() any) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attachment == nil {
		c.attachment = mk()
	}
	return c.attachment
}

// Policy bounds a long-lived cache. The zero value keeps every label
// forever (the default). A cap is installed strictest-wins by
// TightenPolicy and only ever tightens. Eviction runs when a batch is
// published and when a tighter cap is installed — never on a read —
// oldest publish batch first (the newest batch is exempt, so the
// publishing query can always reuse its own labels), and each eviction
// pass bumps the cache version: queries pinned to earlier snapshots
// hold immutable maps and are unaffected; an evicted frame is simply
// re-charged by the next query that needs it. The cap governs labels
// published after it is installed: batches published before any cap
// carry no history, are never evicted, and do not count toward
// MaxLabels.
type Policy struct {
	// MaxLabels, when positive, evicts oldest batches until the cache
	// holds at most this many policy-governed labels.
	MaxLabels int
}

// publishRecord remembers one publish batch for eviction.
type publishRecord struct {
	seq  uint64
	keys []int
}

// NewSharedCache returns an empty cache. Sessions with a private label
// cache use one of these unshared; shared sessions get a registry
// instance via For.
func NewSharedCache() *SharedCache {
	c := &SharedCache{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Snapshot returns the current label map and the version it
// represents. The map is immutable; the caller can read it — and layer
// an Overlay over it — without further coordination. A snapshot never
// evicts: every publish and every tightening leaves the cache within
// its cap, and nothing else changes what the cap measures.
func (c *SharedCache) Snapshot() (Map, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.labels, c.version
}

// Publish folds fresh labels into the cache and returns the new
// version. Empty publishes do not bump the version. The keys are
// folded as one ascending batch (Map.SetSorted), so each touched trie
// node is path-copied once, and the trie's internal shape — not just
// its content — is independent of Go map iteration order. Once a cap
// is installed, the batch is logged and over-budget batches are
// evicted before returning (an eviction pass bumps the version once
// more).
func (c *SharedCache) Publish(fresh map[int]float64) uint64 {
	if len(fresh) == 0 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.version
	}
	keys := make([]int, 0, len(fresh))
	for f := range fresh {
		keys = append(keys, f)
	}
	sort.Ints(keys)
	scores := make([]float64, len(keys))
	for i, f := range keys {
		scores[i] = fresh[f]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.labels = c.labels.SetSorted(keys, scores)
	c.version++
	c.logPublish(c.version, keys, scores)
	if c.policy.MaxLabels > 0 {
		c.pubSeq++
		c.pubs = append(c.pubs, publishRecord{seq: c.pubSeq, keys: keys})
		if c.lastPub == nil {
			c.lastPub = make(map[int]uint64)
		}
		for _, f := range keys {
			c.lastPub[f] = c.pubSeq
		}
		c.evictLocked()
	}
	c.commit()
	return c.version
}

// TightenPolicy merges p into the cache's policy strictest-wins and
// returns the effective result: a positive MaxLabels in p takes effect
// only where the cache has no cap yet or p's is tighter, and a zero or
// negative one changes nothing. The cap therefore only ever tightens —
// the sound resolution for a cache shared by sessions with conflicting
// knobs: any limit a user was promised still holds, because concurrent
// tightenings commute to the minimum regardless of arrival order. A
// tighter cap evicts the oldest logged batches right away, committed
// to an attached WAL before TightenPolicy returns.
func (c *SharedCache) TightenPolicy(p Policy) Policy {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.MaxLabels > 0 && (c.policy.MaxLabels == 0 || p.MaxLabels < c.policy.MaxLabels) {
		c.policy.MaxLabels = p.MaxLabels
		c.evictLocked()
		c.commit()
	}
	return c.policy
}

// evictLocked drops publish batches, oldest first, while the cache
// exceeds MaxLabels. A frame is removed only if the batch being
// dropped is the newest one that contained it — re-published frames
// survive their original batch's eviction. The removed frames are
// deleted as one sorted batch (Map.DeleteSorted) and bump the version
// once. Caller holds c.mu.
func (c *SharedCache) evictLocked() {
	var removed []int
	// The newest batch is never evicted: the query that just published
	// it (and anyone coalesced behind it) must be able to reuse its own
	// labels, so a cap smaller than one batch degrades to keeping the
	// latest batch only. The cap is measured over the labels the policy
	// governs (logged, un-evicted ones — len(lastPub)), not the whole
	// map: pre-cap labels are permanent, and counting them would make an
	// unreachable cap evict every new batch forever.
	for len(c.pubs) > 1 && len(c.lastPub) > c.policy.MaxLabels {
		pub := c.pubs[0]
		c.pubs = c.pubs[1:]
		if removed == nil {
			removed = make([]int, 0, len(pub.keys))
		}
		for _, f := range pub.keys {
			if c.lastPub[f] != pub.seq {
				continue
			}
			delete(c.lastPub, f)
			removed = append(removed, f)
		}
	}
	if len(removed) > 0 {
		sort.Ints(removed)
		c.labels = c.labels.DeleteSorted(removed)
		c.version++
		c.logEvict(c.version, removed)
	}
}

// Len returns the number of labels currently stored.
func (c *SharedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.labels.Len()
}

// Version returns the current publish version.
func (c *SharedCache) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// Admit blocks until fewer than limit oracle-heavy units are running
// against this cache, then reserves a slot; the returned release frees
// it. limit ≤ 0 means no cap (the release is still required). Each
// caller enforces its own limit against the shared in-flight count, so
// heterogeneous configs degrade gracefully: the strictest in-flight
// caller waits the longest. Admission changes scheduling only, never
// results. It is AdmitCtx without a context.
func (c *SharedCache) Admit(limit int) (release func()) {
	release, _ = c.AdmitCtx(context.Background(), limit) // never cancelled, so never an error
	return release
}

// AdmitCtx is Admit with a cancellable wait: a caller cancelled while
// blocked at the gate stops waiting and gets ctx.Err() with a nil
// release — no slot was reserved, so cancellation can never leak
// admission capacity. A nil ctx never cancels.
func (c *SharedCache) AdmitCtx(ctx context.Context, limit int) (release func(), err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Cancellation wakes every gate waiter; the loop below re-checks its
	// own ctx, so only the cancelled caller gives up. Taking the lock in
	// the callback orders the broadcast after the waiter is parked.
	if ctx.Done() != nil { // a context that cannot be cancelled (Admit's) needs no wake-up
		stop := context.AfterFunc(ctx, func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.cond.Broadcast()
		})
		defer stop()
	}
	c.mu.Lock()
	for limit > 0 && c.inflight >= limit {
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		c.cond.Wait()
	}
	c.inflight++
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		c.inflight--
		c.mu.Unlock()
		c.cond.Broadcast()
	}, nil
}

// InFlight reports how many admitted oracle-heavy units are currently
// running against this cache. Leak-detection tests assert it returns
// to zero after faulted workloads; it is scheduling introspection only.
func (c *SharedCache) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// registry is the process-wide cache directory: one SharedCache per
// (video source, UDF) pair, so every session over the same pair —
// across all users of the process — reuses one label store.
var registry = struct {
	mu sync.Mutex
	m  map[string]*SharedCache
}{m: make(map[string]*SharedCache)}

// For returns the process-wide shared cache for the given (video
// source, UDF) identity, creating it on first use. Callers build the
// key from the identifiers that make label reuse sound: same video
// content and same scoring function.
func For(key string) *SharedCache {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	c, ok := registry.m[key]
	if !ok {
		c = NewSharedCache()
		registry.m[key] = c
	}
	return c
}

// ResetForTest detaches every registry entry: sessions already holding
// a cache keep it, future For calls start fresh. Benchmarks and tests
// use this to measure cold-cache behaviour; production code has no
// reason to call it.
func ResetForTest() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.m = make(map[string]*SharedCache)
}
