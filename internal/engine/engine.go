package engine

import (
	"context"
	"fmt"

	"github.com/everest-project/everest/internal/core"
	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/oraclemux"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/windows"
	"github.com/everest-project/everest/internal/workpool"
)

// Binding is what a plan executes against: the artifact plus the live
// (video, UDF) pair, and the execution context the caller wants shared —
// a label overlay, a clock that may already carry ingest charges.
type Binding struct {
	// Src and UDF are the live pair; they must match the artifact
	// (callers validate via Artifact.ValidateFor).
	Src video.Source
	UDF vision.UDF
	// Artifact is the ingested Phase 1 product.
	Artifact *Artifact
	// Labels is the query's private overlay over a label-cache snapshot.
	// Frames in it enter D0 certain, cleaned frames are recorded into its
	// fresh set, and oracle cost is charged only for cache misses. nil is
	// the uncached path: nothing is reused or recorded, and every oracle
	// confirmation is charged.
	Labels *labelstore.Overlay
	// Clock receives the query's simulated charges; nil starts a fresh
	// clock. Entrypoints that ingest and query in one call (everest.Run)
	// pass the ingest clock so the Result carries the full breakdown.
	Clock *simclock.Clock
	// Pool is ignored: Execute runs on the calling goroutine and fans
	// nothing out. The field remains only for the benchmark driver,
	// which still sets it.
	Pool *workpool.Pool
	// Dispatch, when non-nil, routes the plan's oracle confirmation
	// batches through this multiplexer instead of invoking the UDF
	// directly — device-level consolidation across in-flight runs. nil
	// with Plan.UseMux set falls back to the process-wide mux. Never
	// affects results or the plan's own charges.
	Dispatch *oraclemux.Mux
	// Ctx, when non-nil, bounds the execution: it is checked before each
	// oracle dispatch and between Phase 2 cleaning rounds, and a
	// cancelled context returns ctx.Err() — never a degraded answer,
	// because cancellation means the caller stopped wanting one. nil
	// means context.Background(). Cancellation never perturbs sibling
	// plans sharing a coalesced group, mux batch or label cache.
	Ctx context.Context
	// lanes is the number of accelerators a confirmation batch is spread
	// over: a batch of m misses costs ⌈m/lanes⌉ serial inferences. Only
	// RunSharded sets it; zero means 1.
	lanes int
}

// Outcome is the engine's answer to one plan.
type Outcome struct {
	// IDs are the Top-K frame or window indices in descending score
	// order; Levels and Scores are their confirmed quantized levels and
	// level values.
	IDs    []int
	Levels []int
	Scores []float64
	// Confidence is p̂ ≥ Threshold at termination (a lower bound under
	// BoundUnion); Bound echoes the computation used.
	Confidence float64
	Bound      core.BoundKind
	// Stats are the Phase 2 counters; Tuples is |D0|.
	Stats  core.Stats
	Tuples int
	// Clock holds the simulated charges (including any the caller had
	// already accumulated on a provided clock).
	Clock *simclock.Clock
	// Retries counts transient oracle failures the dispatch boundary
	// retried; BackoffMS is the simulated backoff those retries cost
	// (also charged to the clock as simclock.PhaseRetryBackoff). Both
	// are zero on a fault-free run.
	Retries   int
	BackoffMS float64
	// Degraded is non-nil when the plan allowed graceful degradation
	// (Plan.DegradedOK) and the run had to take it: the IDs hold a
	// best-effort answer whose unconfirmed members are estimated from
	// proxy scores and never entered the label overlay.
	Degraded *core.Degraded
}

// Execute runs the RelationBuild and TopKLoop stages of one plan against
// a binding. The plan must be normalized and validated (NewPlan); the
// binding's artifact must match its source and UDF.
//
// The outcome is a pure function of (plan, artifact, overlay snapshot),
// and a nil overlay behaves as a frozen empty cache. Execute runs on the
// calling goroutine; it does not read p.Procs.
func Execute(p Plan, b Binding) (*Outcome, error) {
	ctx := b.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	clock := b.Clock
	if clock == nil {
		clock = simclock.NewClock()
	}
	// dispatch resolves the oracle transport: a caller-injected mux, the
	// process-wide one when the plan asks for it, or direct UDF calls.
	// The transport changes which device launch carries a confirmation
	// batch, never its scores or this plan's charges.
	dispatch := b.Dispatch
	if dispatch == nil && p.UseMux {
		dispatch = oraclemux.Shared()
	}

	qopt := b.UDF.Quantize()
	// dispatchScore is the single oracle dispatch boundary — every Phase 2
	// confirmation, mux-routed or direct, passes through here with the
	// error-returning contract (vision.SafeScore: a panicking UDF becomes
	// a typed *vision.OracleError, never an escaped panic). Transient
	// failures retry up to p.Retries times with capped exponential
	// backoff whose waits are simulated — charged to the clock as
	// simclock.PhaseRetryBackoff, never slept — so retry behavior is
	// bit-deterministic and identical with the mux on or off. Oracle
	// calls are serial within one plan (the Phase 2 loop cleans batches
	// in order), so the plain counters need no synchronization.
	var retries int
	var backoffMS float64
	dispatchScore := func(missIDs []int) ([]float64, error) {
		wait := p.RetryBackoffMS
		if wait <= 0 {
			wait = DefaultRetryBackoffMS
		}
		capMS := wait * retryBackoffCap
		for attempt := 0; ; attempt++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var fresh []float64
			var err error
			if dispatch != nil {
				fresh, err = dispatch.Score(ctx, b.Src, b.UDF, missIDs, p.Cost)
			} else {
				fresh, err = vision.SafeScore(b.UDF, b.Src, missIDs)
			}
			if err == nil {
				return fresh, nil
			}
			if attempt >= p.Retries || !vision.Transient(err) {
				return nil, err
			}
			retries++
			backoffMS += wait
			clock.Charge(simclock.PhaseRetryBackoff, wait)
			if wait *= 2; wait > capMS {
				wait = capMS
			}
		}
	}
	// scoreFrames is the frame-level oracle shared by both query kinds:
	// it consults and feeds the label overlay and charges per miss. With
	// a nil overlay every frame misses, which is exactly the uncached
	// per-confirmation charge. A failed dispatch feeds nothing back:
	// only successfully confirmed labels ever enter the overlay, so a
	// faulted query cannot pollute a shared cache.
	scoreFrames := func(ids []int) ([]float64, error) {
		scores := make([]float64, len(ids))
		var missAt, missIDs []int
		for i, id := range ids {
			if s, ok := b.Labels.Get(id); ok {
				scores[i] = s
				continue
			}
			missAt = append(missAt, i)
			missIDs = append(missIDs, id)
		}
		if len(missIDs) > 0 {
			fresh, err := dispatchScore(missIDs)
			if err != nil {
				return nil, err
			}
			for j, i := range missAt {
				scores[i] = fresh[j]
				b.Labels.Set(missIDs[j], fresh[j])
			}
			clock.Charge(simclock.PhaseConfirm, p.Cost.ScoreMS(len(missIDs), b.lanes, b.UDF.OracleCostMS(p.Cost)))
		}
		return scores, nil
	}

	// Both query kinds start from their D0's prepared memo: a frame
	// query under its labels as point masses, a window query under the
	// windows its overlay touches, re-aggregated in a pooled copy of the
	// relation that goes back to the pool when the run is over (the
	// Outcome holds nothing of it). The iterator over those windows is
	// built here, not returned by the view, so it stays on the stack.
	v, err := b.Artifact.memo(p.Window.d0Key(qopt))
	if err != nil {
		return nil, err
	}
	run, touched, err := v.runStart(b.Labels)
	if err != nil {
		return nil, err
	}
	var rel uncertain.Relation
	if run != nil {
		defer v.release(run)
		rel = *run
	}
	base, err := b.Artifact.prepared(v, p.Bound())
	if err != nil {
		return nil, err
	}
	over := v.frameOverrides(b.Labels)
	if touched != nil {
		over = func(yield func(int, uncertain.Dist) bool) {
			for _, w := range touched { // a window's position is its ID
				if !yield(w, rel[w].Dist) {
					return
				}
			}
		}
	}
	var oracle core.Oracle
	if p.Window.Enabled() {
		oracle = &windows.Oracle{
			ScoreFrames: scoreFrames,
			Size:        p.Window.Size,
			Stride:      p.Window.Stride,
			SampleFrac:  p.Window.SampleFrac,
			Step:        qopt.Step,
			Seed:        p.Seed,
		}
	} else {
		oracle = core.OracleFunc(func(ids []int) ([]int, error) {
			scores, err := scoreFrames(ids)
			if err != nil {
				return nil, err
			}
			levels := make([]int, len(ids))
			for i, s := range scores {
				levels[i] = uncertain.LevelOf(s, qopt.Step)
			}
			return levels, nil
		})
	}
	if p.K > base.Len() {
		return nil, fmt.Errorf("everest: K=%d exceeds relation size %d", p.K, base.Len())
	}

	coreCfg := core.Config{
		K:                p.K,
		Threshold:        p.Threshold,
		BatchSize:        p.BatchSize,
		DisableEarlyStop: p.DisableEarlyStop,
		ResortOnce:       p.ResortOnce,
		Bound:            p.Bound(),
		Ctx:              ctx,
		BudgetMS:         p.DeadlineMS,
		DegradedOK:       p.DegradedOK,
		DisablePrefetch:  p.DisablePrefetch,
	}
	eng, err := base.Start(coreCfg, rel, over, oracle, clock, p.Cost)
	if err != nil {
		return nil, err
	}
	coreRes, err := eng.Run()
	if err != nil {
		return nil, err
	}
	scores := make([]float64, len(coreRes.Levels))
	for i, lvl := range coreRes.Levels {
		scores[i] = uncertain.LevelValue(lvl, qopt.Step)
	}
	return &Outcome{
		IDs:        coreRes.IDs,
		Levels:     coreRes.Levels,
		Scores:     scores,
		Confidence: coreRes.Confidence,
		Bound:      coreRes.Bound,
		Stats:      coreRes.Stats,
		Tuples:     base.Len(),
		Clock:      clock,
		Retries:    retries,
		BackoffMS:  backoffMS,
		Degraded:   coreRes.Degraded,
	}, nil
}
