// Package everest is a from-scratch Go reproduction of "Top-K Deep Video
// Analytics: A Probabilistic Approach" (SIGMOD 2021) — the Everest system.
//
// Everest answers Top-K and Top-K-window queries over video with a
// probabilistic guarantee: the returned result has probability ≥ thres of
// being the exact Top-K under possible-world semantics, and every returned
// score has been confirmed by the accurate oracle model.
//
// A query runs in two phases. Phase 1 samples frames, labels them with the
// oracle UDF, trains a convolutional mixture density network (CMDN) proxy,
// removes near-duplicate frames with a difference detector, and quantizes
// the proxy's score distributions into an uncertain relation D0. Phase 2
// is oracle-in-the-loop uncertain Top-K processing: it repeatedly cleans
// the uncertain tuples whose confirmation maximizes the expected result
// confidence until the guarantee holds.
//
// Usage:
//
//	src, _ := video.DatasetByName("Archie")   // or any video.Source
//	udf := vision.CountUDF{Class: video.ClassCar}
//	res, err := everest.Run(source, udf, everest.Config{K: 50, Threshold: 0.9})
//
// Beyond one-shot queries, the package implements the paper's stated
// future work and the multi-query layer it enables:
//
//   - RunParallel executes a query with P-way scale-out (the RAM3S
//     direction of §3.5) as a stage of the same engine pipeline: Phase 1
//     is ingested per shard and merged into one artifact, and Phase 2's
//     confirmation batches are spread over the P accelerators.
//   - Config.Stride turns window queries into sliding windows; when
//     windows overlap the engine switches to a dependence-safe union
//     bound so the guarantee survives correlation.
//   - BuildIndex runs Phase 1 once at ingestion time; Index.Query serves
//     any number of Phase-2-only queries, Index.Extend ingests appended
//     footage incrementally, and Save/LoadIndex persist the artifact.
//   - NewSession shares every oracle-revealed frame score across the
//     queries of one analysis session, making repeats and drill-downs
//     oracle-free.
//   - Config.Coalesce batches compatible in-flight session queries —
//     across users, with NewSharedSession — into one engine run that
//     labels overlapping frames once (bit-identical to serial
//     execution in submission order).
//
// Every entrypoint, RunParallel included, compiles its Config to an
// explicit query plan executed by the one pipeline in internal/engine
// (Ingest → Artifact → Execute); see DESIGN.md's
// "Engine pipeline & scheduler" contract.
//
// All "runtimes" are simulated milliseconds accumulated on a
// simclock.Clock using a cost model calibrated to the paper's hardware;
// see internal/simclock.
package everest

import (
	"context"
	"errors"
	"fmt"

	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/core"
	"github.com/everest-project/everest/internal/diffdet"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// Config parameterizes one Top-K query.
type Config struct {
	// K is the result size. Required.
	K int
	// Threshold is the probabilistic guarantee thres ∈ (0,1]; zero means
	// 0.9, the paper's default.
	Threshold float64
	// Window, when positive, turns the query into a Top-K tumbling-window
	// query over windows of this many frames (§3.4).
	Window int
	// Stride is the offset between consecutive window starts; zero means
	// Window (tumbling, the paper's §3.4). Stride < Window produces
	// overlapping sliding windows — an extension beyond the paper — whose
	// scores are correlated; the engine then automatically switches to the
	// dependence-safe union bound.
	Stride int
	// WindowSampleFrac is the fraction of a window's frames the oracle
	// scores when confirming it; zero means 0.1 (the paper's 10%).
	WindowSampleFrac float64
	// BatchSize is the Phase 2 cleaning batch b; zero means 8 (§3.5).
	BatchSize int
	// SampleFrac is the fraction of frames labelled for CMDN training.
	// Zero means 0.02. (The paper uses 0.5% of multi-million-frame videos;
	// scaled-down reproductions need a larger fraction to keep absolute
	// sample counts trainable — see DESIGN.md.)
	SampleFrac float64
	// SampleCap bounds the absolute number of training samples; zero
	// means 30000 (the paper's cap).
	SampleCap int
	// MinSamples floors the number of training samples; zero means 600.
	MinSamples int
	// HoldoutFrac sizes the holdout set relative to the training set;
	// zero means 0.1 (the paper's 3000-of-30000 ratio).
	HoldoutFrac float64
	// Diff configures the difference detector (§3.5 defaults when zero).
	Diff diffdet.Options
	// Proxy configures CMDN training; zero values use the paper grid with
	// the pooled backbone.
	Proxy cmdn.Config
	// Cost is the simulated cost model; zero-value means
	// simclock.Default().
	Cost simclock.CostModel
	// Seed drives all randomness; queries are bit-reproducible.
	Seed uint64
	// Procs bounds the real CPU workers of Phase 1's four fan-outs: the
	// difference detector's clip pass, CMDN grid training, sample
	// featurization and DisableDiff's proxy-inference sweep. Phase 2
	// runs on the calling goroutine. Zero or negative means
	// GOMAXPROCS. The knob trades
	// wall-clock only: results are bit-identical for every value, and
	// simulated (simclock) charges do not change.
	Procs int
	// AdmissionLimit is the serving-path admission-control knob: it caps
	// how many oracle-heavy units (a lone Session.Query, or one whole
	// QueryBatch) may run concurrently against the session's label
	// cache; excess callers queue. For shared sessions the cap spans
	// every session on the same (video, UDF) cache, protecting the
	// oracle budget under fan-in. Zero or negative means no cap.
	// Admission changes scheduling only — results stay bit-identical.
	AdmissionLimit int
	// Coalesce routes Session queries through the label cache's
	// cross-query scheduler: compatible queries submitted while another
	// runs are batched into one engine run that shares a single label
	// overlay, so overlapping frames are labeled once and charged once.
	// Results are bit-identical to executing the same queries serially
	// in submission order, each seeing its predecessors' labels (see
	// DESIGN.md "Engine pipeline & scheduler"). A coalesced QueryBatch
	// runs its queries as one pre-formed group in input order.
	Coalesce bool
	// UseMux routes the query's Phase 2 oracle confirmation batches
	// through the process-wide oracle multiplexer (internal/oraclemux),
	// which consolidates in-flight confirmation batches from all runs —
	// across sessions, caches and videos — into device batches, the way
	// a serving deployment funnels every query's oracle work through one
	// GPU-resident model. Device-side accounting only: results and the
	// query's own simulated charges are bit-identical to direct
	// dispatch.
	UseMux bool
	// CacheMaxLabels, when positive, caps how many policy-governed
	// labels the session's label cache holds: after a publish pushes it
	// past the cap, the oldest publish batches are evicted until it fits
	// (the newest batch always stays; each eviction bumps the cache
	// version, and queries pinned to earlier snapshots are unaffected).
	// The cap is per cache, installs strictest-wins and only ever
	// tightens: on a shared cache, conflicting sessions resolve to the
	// smallest cap, and a zero or negative knob leaves the installed cap
	// untouched (unbounded by default). A Config rejected at plan
	// compilation installs nothing.
	CacheMaxLabels int
	// DurableDir, when non-empty, makes the session's label cache
	// crash-safe: every publish and eviction is logged to a
	// checksummed write-ahead log in this directory (with periodic
	// atomic checkpoints) before its version becomes observable, and a
	// restarted process recovers the newest consistent prefix of that
	// history — the oracle bill the cache represents survives a crash.
	// The directory belongs to exactly one (video, UDF) cache;
	// attaching it to a different cache, or pointing one session at two
	// directories, is an error. Ignored outside sessions (Run,
	// Index.Query). See DESIGN.md "Durability & crash recovery".
	DurableDir string
	// DeadlineMS bounds the query's simulated cost: once the query's
	// simclock reaches this many simulated milliseconds mid-run, the
	// Phase 2 loop stops — returning an explicitly marked degraded
	// answer when DegradedOK is set, and ErrDeadline otherwise. The
	// budget is charged on the simulated clock (§3.5), so a query that
	// finishes within it is bit-identical — results AND charges — to an
	// unbounded one. Zero or negative means no deadline.
	DeadlineMS float64
	// Retries caps how many times a transient oracle failure (a UDF
	// error or panic classified retryable) is retried per dispatch
	// before the query fails with a typed *OracleError. Zero or
	// negative means fail on first error.
	Retries int
	// RetryBackoffMS is the initial retry backoff, doubling per attempt
	// and capped at 32× the base. The waits are simulated — charged to
	// the clock's retry-backoff phase, never slept — so retried queries
	// remain deterministic. Zero with Retries set uses 100 simulated ms.
	RetryBackoffMS float64
	// DegradedOK permits graceful degradation: when the oracle stays
	// down past the retry budget, or the deadline expires, the query
	// returns a best-effort Top-K (confirmed frames first, the rest
	// estimated from proxy scores) carrying an explicit Result.Degraded
	// marker instead of failing. Unconfirmed estimates are never
	// published to the session's label cache.
	DegradedOK bool

	// DisableDiff skips the difference detector (ablation A4).
	DisableDiff bool
	// DisableEarlyStop disables the ψ-bound pruning (ablation A1).
	DisableEarlyStop bool
	// ResortOnce freezes the ψ sort at iteration 0 (ablation A2).
	ResortOnce bool
	// DisablePrefetch stops hiding cleaned frames' decode latency behind
	// oracle compute (§3.5 Prefetching; ablation A6).
	DisablePrefetch bool
	// UnionBound forces the Bonferroni confidence lower bound even when
	// the tuples are independent (ablation A7). Overlapping sliding
	// windows use it regardless of this flag.
	UnionBound bool
}

func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 0.9
	}
	if c.WindowSampleFrac == 0 {
		c.WindowSampleFrac = 0.1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.SampleFrac == 0 {
		c.SampleFrac = 0.02
	}
	if c.SampleCap == 0 {
		c.SampleCap = 30000
	}
	if c.MinSamples == 0 {
		c.MinSamples = 600
	}
	if c.HoldoutFrac == 0 {
		c.HoldoutFrac = 0.1
	}
	if c.Cost == (simclock.CostModel{}) {
		c.Cost = simclock.Default()
	}
	return c
}

// phase1Options maps the user-facing Config onto Phase 1's options. The
// seed is supplied by the caller because the append path derives its
// own per-tail stream.
func (c Config) phase1Options(seed uint64) phase1.Options {
	return phase1.Options{
		SampleFrac:  c.SampleFrac,
		SampleCap:   c.SampleCap,
		MinSamples:  c.MinSamples,
		HoldoutFrac: c.HoldoutFrac,
		Diff:        c.Diff,
		DisableDiff: c.DisableDiff,
		Proxy:       c.Proxy,
		Cost:        c.Cost,
		Seed:        seed,
		Procs:       c.Procs,
	}
}

// plan compiles the (defaulted) Config down to the engine's explicit
// query plan: every entrypoint — Run, Index.Query, Extend's tail
// ingest, Session queries — goes through this one translation, so the
// pipeline semantics live in internal/engine alone. The caller
// validates via engine.NewPlan / Plan.ValidateFor.
func (c Config) plan() engine.Plan {
	return engine.Plan{
		K:         c.K,
		Threshold: c.Threshold,
		Window: engine.WindowSpec{
			Size:       c.Window,
			Stride:     c.Stride,
			SampleFrac: c.WindowSampleFrac,
		},
		BatchSize:        c.BatchSize,
		DisableEarlyStop: c.DisableEarlyStop,
		ResortOnce:       c.ResortOnce,
		DisablePrefetch:  c.DisablePrefetch,
		ForceUnionBound:  c.UnionBound,
		Procs:            c.Procs,
		Seed:             c.Seed,
		Cost:             c.Cost,
		AdmissionLimit:   c.AdmissionLimit,
		UseMux:           c.UseMux,
		DeadlineMS:       c.DeadlineMS,
		Retries:          c.Retries,
		RetryBackoffMS:   c.RetryBackoffMS,
		DegradedOK:       c.DegradedOK,
		Ingest:           c.phase1Options(c.Seed),
	}.Normalize()
}

// PlanKnob is one engine setting of a compiled Config, rendered for
// plan introspection (EXPLAIN / EXPLAIN ANALYZE reports).
type PlanKnob = engine.Knob

// PlanKnobs renders the engine knob settings this Config compiles to,
// in a fixed deterministic order. Coalesce is prepended because it
// lives on Config (it selects the Session submission path) rather than
// on the engine plan itself.
func (c Config) PlanKnobs() []PlanKnob {
	c = c.withDefaults()
	return append([]PlanKnob{{Name: "coalesce", Value: fmt.Sprintf("%t", c.Coalesce)}}, c.plan().Knobs()...)
}

// Phase1Info reports what Phase 1 did.
type Phase1Info struct {
	// TotalFrames is the video length.
	TotalFrames int
	// TrainSamples and HoldoutSamples are the labelled sample counts.
	TrainSamples, HoldoutSamples int
	// Retained is the number of frames surviving the difference detector.
	Retained int
	// Tuples is the size of the uncertain relation D0 (frames or windows).
	Tuples int
	// Hyper is the selected CMDN grid point.
	Hyper cmdn.Hyper
	// HoldoutNLL is its selection criterion value.
	HoldoutNLL float64
}

// Result is a guaranteed Top-K answer.
type Result struct {
	// IDs lists the Top-K frame indices (or window indices for window
	// queries) in descending score order.
	IDs []int
	// Scores are the oracle-confirmed scores of IDs (level-quantized for
	// non-counting UDFs).
	Scores []float64
	// Confidence is Pr(result = exact Top-K) ≥ Threshold at termination.
	// Under the union bound (overlapping windows, Config.UnionBound) it is
	// a lower bound on that probability.
	Confidence float64
	// Bound records the confidence computation used.
	Bound core.BoundKind
	// IsWindow marks window-query results.
	IsWindow bool
	// WindowSize echoes Config.Window for window queries.
	WindowSize int
	// WindowStride echoes the effective stride for window queries
	// (WindowSize for tumbling).
	WindowStride int
	// Clock holds the simulated cost of the whole query, by phase.
	Clock *simclock.Clock
	// EngineStats are the Phase 2 counters (Table 8b).
	EngineStats core.Stats
	// Phase1 reports Phase 1 statistics (Table 8a).
	Phase1 Phase1Info
	// Retries counts transient oracle failures the query retried;
	// RetryBackoffMS is the simulated backoff those retries cost (also
	// on the Clock, under the retry-backoff phase). Zero on fault-free
	// queries.
	Retries        int
	RetryBackoffMS float64
	// Degraded is non-nil when the query degraded gracefully
	// (Config.DegradedOK): the answer is best-effort, its Unconfirmed
	// members carry proxy estimates rather than oracle-confirmed
	// scores, and Confidence is the guarantee actually reached.
	Degraded *Degraded
}

// Degraded documents a best-effort answer: why the query degraded
// ("deadline" or "oracle"), which result IDs are unconfirmed proxy
// estimates, and the simulated cost spent when it stopped.
type Degraded = core.Degraded

// OracleError is the typed failure of an oracle (UDF) dispatch: it
// carries the failing UDF's name, the frame IDs of the failed batch,
// and — when the UDF panicked — the recovered panic value. Queries
// whose oracle fails past the retry budget return one (wrapped);
// errors.As extracts it.
type OracleError = vision.OracleError

// ErrDeadline is returned (wrapped) when a query's Config.DeadlineMS
// expires and DegradedOK is not set.
var ErrDeadline = core.ErrDeadline

// phase1InfoOf converts the ingest stage's statistics into the public
// report shape (Tuples is per-query and filled in by resultOf).
func phase1InfoOf(in phase1.Info) Phase1Info {
	return Phase1Info{
		TotalFrames:    in.TotalFrames,
		TrainSamples:   in.TrainSamples,
		HoldoutSamples: in.HoldoutSamples,
		Retained:       in.Retained,
		Hyper:          in.Hyper,
		HoldoutNLL:     in.HoldoutNLL,
	}
}

// resultOf converts an engine outcome into the public Result.
func resultOf(out *engine.Outcome, p engine.Plan, info Phase1Info) *Result {
	info.Tuples = out.Tuples
	stride := 0
	if p.Window.Enabled() {
		stride = p.Window.Stride
	}
	return &Result{
		IDs:            out.IDs,
		Scores:         out.Scores,
		Confidence:     out.Confidence,
		Bound:          out.Bound,
		IsWindow:       p.Window.Enabled(),
		WindowSize:     p.Window.Size,
		WindowStride:   stride,
		Clock:          out.Clock,
		EngineStats:    out.Stats,
		Phase1:         info,
		Retries:        out.Retries,
		RetryBackoffMS: out.BackoffMS,
		Degraded:       out.Degraded,
	}
}

// Run executes a Top-K query over src with the given scoring UDF: it
// compiles the Config to an engine plan, ingests Phase 1 into an
// artifact and executes the plan against it — the same pipeline every
// other entrypoint uses, sharing one clock across both stages.
func Run(src video.Source, udf vision.UDF, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), src, udf, cfg)
}

// RunCtx is Run with a cancellable context: a cancelled ctx stops the
// Phase 2 loop and returns ctx.Err(). Phase 1 ingestion runs to
// completion (it is the reusable artifact, not per-query work).
func RunCtx(ctx context.Context, src video.Source, udf vision.UDF, cfg Config) (*Result, error) {
	if src == nil || udf == nil {
		return nil, errors.New("everest: nil source or UDF")
	}
	cfg = cfg.withDefaults()
	plan, err := engine.NewPlan(cfg.plan())
	if err != nil {
		return nil, err
	}
	if err := plan.ValidateFor(src.NumFrames()); err != nil {
		return nil, err
	}
	art, out, err := engine.Run(ctx, src, udf, plan)
	if err != nil {
		return nil, err
	}
	return resultOf(out, plan, phase1InfoOf(art.Info)), nil
}
