package everest

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/workpool"
)

// Session runs many queries against one Index while sharing oracle work
// between them. Every frame score the oracle reveals — cleaning a frame,
// or sampling frames to confirm a window — is cached, and later queries
// see those frames as certain tuples in D0 at zero cost. This is the
// multi-query extension of the paper's observation that Phase 1 can be
// amortized across queries (§4.2): a Session amortizes Phase 2's oracle
// bill too. Different K, thres, window size and stride all share one
// cache, because an exact frame score is query-independent.
//
// A Session is tied to the (video, UDF) pair of its Index and is safe for
// concurrent use: any number of goroutines may call Query at once over
// the shared Index and label cache. The cache is a versioned persistent
// map (internal/labelstore): each query pins an O(1) immutable snapshot
// when it starts and publishes its newly confirmed labels back when it
// finishes, so a query's result is a deterministic function of
// (snapshot, Config) — the engine never observes another query's labels
// mid-flight, and snapshot cost no longer grows with the cache. For
// bit-reproducible concurrent execution use QueryBatch, which gives
// every query of the batch the same snapshot and merges in query order;
// see DESIGN.md's shared-label-cache contract.
//
// Every query compiles to an engine.Plan executed by the one engine
// pipeline (internal/engine). With Config.Coalesce, queries additionally
// route through the cache's cross-query scheduler, which batches
// compatible in-flight plans into one engine run — overlapping frames
// are labeled once and charged once (see DESIGN.md "Engine pipeline &
// scheduler").
//
// NewSession gives the session a private cache; NewSharedSession joins
// the process-wide cache for the (video, UDF) pair, so separate user
// sessions over the same pair reuse each other's oracle labels (and,
// when coalescing, one scheduler).
type Session struct {
	ix  *Index
	src video.Source
	udf vision.UDF

	cache   *labelstore.SharedCache
	queries atomic.Int64
}

// NewSession validates that (src, udf) matches the index and returns a
// session with a private, empty label cache.
func NewSession(ix *Index, src video.Source, udf vision.UDF) (*Session, error) {
	return newSession(ix, src, udf, labelstore.NewSharedCache())
}

// NewSharedSession is NewSession on the process-wide label cache for
// the (video, UDF) pair: every shared session over the same pair — one
// per user in a serving deployment — publishes into and snapshots from
// one store, so a frame any user's query confirmed is free for all
// later queries, whoever issues them. Results remain deterministic per
// query: each pins an immutable cache version when it starts (see
// DESIGN.md's serving-layer contract). Shared sessions also share the
// pair's coalescing scheduler, so Coalesce batches queries across
// users, not just within one session.
func NewSharedSession(ix *Index, src video.Source, udf vision.UDF) (*Session, error) {
	return newSession(ix, src, udf, labelstore.For(sharedCacheKey(ix)))
}

func newSession(ix *Index, src video.Source, udf vision.UDF, cache *labelstore.SharedCache) (*Session, error) {
	if err := ix.validateFor(src, udf); err != nil {
		return nil, err
	}
	return &Session{ix: ix, src: src, udf: udf, cache: cache}, nil
}

// sharedCacheKey identifies the label-reuse domain: same video content
// and same scoring function. Frame count is included because label
// frame indices are only meaningful against one fixed timeline.
func sharedCacheKey(ix *Index) string {
	return fmt.Sprintf("%s\x00%d\x00%s", ix.art.Dataset, ix.art.TotalFrames, ix.art.UDFName)
}

// scheduler returns the coalescing scheduler of the session's label
// cache. The scheduler lives on the cache itself (one per cache, the
// cache's lifetime), so every shared session on one (video, UDF) pair
// submits to one process-wide queue, while a private session gets a
// private one.
func (s *Session) scheduler() *engine.Scheduler {
	return s.cache.Attachment(func() any {
		return engine.NewCacheScheduler(s.cache)
	}).(*engine.Scheduler)
}

// Query runs one Top-K (or Top-K-window) query, reusing every oracle
// label revealed by earlier queries over this session's cache. Only the
// marginal oracle cost — frames no previous query confirmed — is
// charged to the result's clock. Query is safe for concurrent use; each
// call's result is the deterministic function of the cache version it
// pins at start. Config.AdmissionLimit, when set, gates the call behind
// the cache's admission control; Config.Coalesce routes it through the
// cache's cross-query scheduler instead, which batches it with other
// in-flight coalesced queries into one engine run.
func (s *Session) Query(cfg Config) (*Result, error) {
	return s.QueryCtx(context.Background(), cfg)
}

// QueryCtx is Query with a cancellable context: a cancelled ctx stops
// the query — waiting at the admission gate, queued at the coalescing
// scheduler, or mid-Phase 2 — and returns ctx.Err(). Cancellation
// never poisons siblings: a cancelled member leaves its coalesced
// group (and any mux batch) without perturbing the others' results or
// charges, and its admission slot is always released.
//
// A lone query is a batch of one whose error comes back verbatim: it
// runs through QueryBatchCtx, whose failure semantics are this one's.
func (s *Session) QueryCtx(ctx context.Context, cfg Config) (*Result, error) {
	results, err := s.QueryBatchCtx(ctx, []Config{cfg})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// QueryBatch runs the given queries over one shared cache snapshot and
// returns their results in input order. To run n copies of one query —
// the N-concurrent-callers serving scenario — pass
// slices.Repeat([]Config{cfg}, n).
//
// By default the queries run concurrently, each over its own private
// overlay of the snapshot: every query of the batch sees the same
// snapshot and the overlays merge in query order after all complete, so
// the results — and the labels published — are bit-identical for every
// interleaving and worker count, unlike free-running concurrent Query
// calls (whose snapshots depend on arrival order). Each query's worker
// budget (Config.Procs) is divided by the batch width, mirroring the
// scale-out shard convention, so a wide batch does not oversubscribe
// the cores; Procs never affects results.
//
// When any member sets Config.Coalesce, the whole batch instead runs as
// one pre-formed coalesced group on the cache's scheduler: the queries
// execute in input order over a single shared overlay, so overlapping
// frames are labeled once and charged once. Results are then
// bit-identical to calling Query serially in input order — each query
// sees its predecessors' labels — which spends strictly fewer oracle
// calls than the independent-overlay mode whenever the queries overlap.
//
// The batch counts as one unit against the cache's admission control
// (the strictest positive AdmissionLimit in the batch applies). On
// failure the first failing query's error (lowest index; in coalesced
// mode, plan-compilation errors are reported ahead of execution-stage
// ones) is returned alongside the results, prefixed "everest: batch
// query i:" when the batch has more than one member: successful
// members keep their Result (failed slots are nil), and their confirmed
// labels are still published, so the oracle work a partly-failed batch
// paid for is never lost — the same per-member contract in both the
// independent and the coalesced mode, for a Config that fails plan
// compilation as for a member that fails mid-engine.
func (s *Session) QueryBatch(cfgs []Config) ([]*Result, error) {
	return s.QueryBatchCtx(context.Background(), cfgs)
}

// QueryBatchCtx is QueryBatch with a cancellable context governing the
// whole batch: cancellation stops every member with ctx.Err() (slots
// nil) — at the admission gate, queued behind another group at the
// scheduler, or mid-Phase 2 — releases the batch's admission slot, and
// still publishes the confirmed labels completed members paid for.
//
// Failure semantics (see DESIGN.md "Failure semantics"): a UDF that
// fails or panics surfaces as a typed *OracleError in its own slot
// only — a tenant's panicking oracle never crashes the serving process
// — and unconfirmed (degraded) estimates are never published.
//
// It is the session's one serving path: compile every member, prepare
// the cache for those that compiled, dispatch the compiled plans to the
// scheduler or to runIndependent, map outcomes to Results.
func (s *Session) QueryBatchCtx(ctx context.Context, cfgs []Config) (_ []*Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = oraclePanicError(s.udf, r)
		}
	}()
	if len(cfgs) == 0 {
		return nil, nil
	}
	// Compile, member by member: a Config that is rejected is dropped
	// from the dispatch (its slot stays nil) and the rest still run.
	coalesce := false
	plans := make([]engine.Plan, 0, len(cfgs))
	binds := make([]engine.Binding, 0, len(cfgs))
	slot := make([]int, 0, len(cfgs))
	var firstErr error
	firstAt := -1
	for i, cfg := range cfgs {
		coalesce = coalesce || cfg.Coalesce
		p, b, err := s.ix.planFor(s.src, s.udf, cfg)
		if err != nil {
			if firstErr == nil {
				firstAt, firstErr = i, err
			}
			continue
		}
		b.Ctx = ctx
		plans = append(plans, p)
		binds = append(binds, b)
		slot = append(slot, i)
	}
	// Prepare the cache for the members that compiled only: a rejected
	// Config leaves the cache's durability and cap as they were. The cap
	// installs strictest-wins (see Config.CacheMaxLabels), so on a shared
	// cache no session can loosen or erase a bound a sibling was promised.
	for _, i := range slot {
		if err := ensureDurable(s.cache, cfgs[i].DurableDir); err != nil {
			return nil, err
		}
		if n := cfgs[i].CacheMaxLabels; n > 0 {
			s.cache.TightenPolicy(labelstore.Policy{MaxLabels: n})
		}
	}

	// Dispatch. Either runner returns one outcome per plan — nil exactly
	// where that member failed — and the lowest-index failure's error.
	var outs []*engine.Outcome
	var execErr error
	if coalesce {
		outs, execErr = s.scheduler().SubmitGroup(plans, binds)
	} else {
		outs, execErr = s.runIndependent(ctx, plans, binds)
	}
	if execErr != nil {
		// The documented precedence: lowest index, except that a
		// coalesced batch reports compile-stage failures first (its
		// group never contained those members).
		if at := slot[slices.Index(outs, nil)]; firstErr == nil || (!coalesce && at < firstAt) {
			firstAt, firstErr = at, execErr
		}
	}
	// A batch of one is a lone query: its error is never decorated.
	if firstErr != nil && len(cfgs) > 1 {
		firstErr = fmt.Errorf("everest: batch query %d: %w", firstAt, firstErr)
	}
	results := make([]*Result, len(cfgs))
	for j, out := range outs {
		if out != nil {
			results[slot[j]] = resultOf(out, plans[j], s.ix.info)
			s.queries.Add(1)
		}
	}
	return results, firstErr
}

// runIndependent executes compiled plans concurrently, each over its
// own private overlay of one cache snapshot — the session's one place
// that admits, snapshots and publishes (the scheduler holds the other,
// for coalesced groups). The plans are one admission unit under the
// strictest positive AdmissionLimit among them, waited for at the
// cancellable gate; a cancellation there fails every member. Each
// member's worker budget is its Procs divided by the width, so a wide
// batch does not oversubscribe the cores. Overlays publish in input
// order after all members finish, a failed member's included: only
// successful oracle dispatches ever enter an overlay, so that is
// paid-for exact work, never speculation.
func (s *Session) runIndependent(ctx context.Context, plans []engine.Plan, binds []engine.Binding) ([]*engine.Outcome, error) {
	outs := make([]*engine.Outcome, len(plans))
	if len(plans) == 0 {
		return outs, nil
	}
	limit := 0
	for i := range plans {
		limit = engine.TighterLimit(limit, plans[i].AdmissionLimit)
	}
	release, err := s.cache.AdmitCtx(ctx, limit)
	if err != nil {
		return outs, err
	}
	defer release()
	snap, _ := s.cache.Snapshot()
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		binds[i].Labels = labelstore.NewOverlay(snap)
		plans[i].Procs = max(1, workpool.Procs(plans[i].Procs)/len(plans))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = oraclePanicError(s.udf, r)
				}
			}()
			outs[i], errs[i] = engine.Execute(plans[i], binds[i])
		}()
	}
	wg.Wait()
	var firstErr error
	for i := range plans {
		s.cache.Publish(binds[i].Labels.Fresh())
		if firstErr == nil {
			firstErr = errs[i]
		}
	}
	return outs, firstErr
}

// oraclePanicError is the public API's last-resort recovery: any panic
// that unwinds out of a query path — a tenant UDF or video source that
// panicked outside the guarded dispatch boundary — becomes a typed
// *OracleError instead of crashing the process. An *OracleError panic
// value (already typed by the dispatch boundary) passes through as is.
func oraclePanicError(udf vision.UDF, r any) error {
	if oe, ok := r.(*vision.OracleError); ok {
		return oe
	}
	return &vision.OracleError{UDF: udf.Name(), Panic: r}
}

// CachedLabels returns the number of distinct frames whose exact score
// the session's cache has accumulated. For shared sessions this counts
// the whole process-wide cache, including other sessions' labels.
func (s *Session) CachedLabels() int {
	return s.cache.Len()
}

// CacheVersion returns the cache's current publish version: it advances
// by one for every query (from any session on a shared cache) that
// confirmed at least one new frame, and by one for every eviction pass.
func (s *Session) CacheVersion() uint64 {
	return s.cache.Version()
}

// Queries returns how many queries completed in this session.
func (s *Session) Queries() int {
	return int(s.queries.Load())
}
