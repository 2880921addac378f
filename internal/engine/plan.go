// Package engine owns the unified Everest query pipeline. Every public
// entrypoint — everest.Run, RunParallel, Index.Query, Index.Extend,
// Session.Query and its batch/coalesced variants — compiles the
// user-facing Config down to an explicit Plan and submits it here, so
// the pipeline exists exactly once and each stage is individually
// testable:
//
//	Plan          a validated, normalized query description (result size,
//	              guarantee, window spec, bound kind, ingest options)
//	Ingest        Phase 1 — sample, label, train the CMDN, run the
//	              difference detector — captured as an Artifact that any
//	              number of later plans execute against
//	RelationBuild the uncertain relation D0 (frame- or window-level) over
//	              the Artifact plus a labelstore.Overlay of already-known
//	              exact scores
//	TopKLoop      Phase 2 — oracle-in-the-loop uncertain Top-K cleaning
//	              (internal/core) fed by an overlay-aware frame oracle
//
// Run composes Ingest and Execute for one-shot queries; RunSharded is the
// same composition with Ingest partitioned over contiguous shards whose
// artifacts are merged before the one Execute (scale-out, sharded.go).
// On top of the single pipeline, Scheduler coalesces compatible plans
// from different callers into one engine run (see scheduler.go).
//
// Determinism: an Outcome is a pure function of (Plan, Artifact, overlay
// snapshot). Procs trades wall-clock only: it bounds Ingest's Phase 1
// workers, while Execute runs on the calling goroutine. Simulated
// charges and results are bit-identical for every worker count, the
// property the golden suite locks.
package engine

import (
	"fmt"
	"math"

	"github.com/everest-project/everest/internal/core"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/windows"
	"github.com/everest-project/everest/internal/workpool"
)

// DefaultRetryBackoffMS is the initial simulated retry backoff used
// when a plan enables retries (Retries > 0) without choosing a base.
const DefaultRetryBackoffMS = 100

// retryBackoffCap bounds the exponential backoff at this multiple of
// the base, so a long outage's simulated waits stay proportionate.
const retryBackoffCap = 32

// WindowSpec describes the window shape of a plan. The zero value is a
// frame query.
type WindowSpec struct {
	// Size is the window length in frames; zero means a frame query.
	Size int
	// Stride is the offset between window starts. Normalize sets it to
	// Size (tumbling) when the plan is windowed and the stride is unset.
	Stride int
	// SampleFrac is the fraction of a window's frames the oracle scores
	// when confirming it; Normalize resolves zero to
	// windows.SampleFracOrDefault's 0.1.
	SampleFrac float64
}

// Enabled reports whether the plan is a window query.
func (w WindowSpec) Enabled() bool { return w.Size > 0 }

// Overlapping reports whether consecutive windows share frames, which
// correlates their scores and forces the union bound.
func (w WindowSpec) Overlapping() bool { return w.Enabled() && w.Stride < w.Size }

// Plan is one validated, normalized Top-K query: everything the engine
// needs to execute, with defaults resolved and the bound kind fixed.
// Plans are plain values; two plans over the same artifact can execute
// concurrently or be coalesced by a Scheduler.
type Plan struct {
	// K is the result size.
	K int
	// Threshold is the probabilistic guarantee thres ∈ (0,1].
	Threshold float64
	// Window is the window spec; zero Size means a frame query.
	Window WindowSpec
	// BatchSize is the Phase 2 cleaning batch b; Normalize sets an
	// unset (zero or negative) one to 8 (§3.5).
	BatchSize int
	// DisableEarlyStop, ResortOnce and DisablePrefetch are the §4.3
	// ablation knobs, forwarded to the Phase 2 loop.
	DisableEarlyStop bool
	ResortOnce       bool
	DisablePrefetch  bool
	// ForceUnionBound requests the Bonferroni bound even for independent
	// tuples (ablation A7). Overlapping windows use it regardless.
	ForceUnionBound bool
	// Procs is the worker budget RunSharded splits across its shards'
	// ingest; ≤ 0 means GOMAXPROCS. Execute ignores it. Never affects
	// results.
	Procs int
	// Seed drives window-confirmation sampling (and, through Ingest, all
	// Phase 1 randomness).
	Seed uint64
	// Cost is the simulated cost model, resolved by the caller
	// (simclock.OrDefault): the engine charges it as given.
	Cost simclock.CostModel
	// AdmissionLimit caps concurrent oracle-heavy units on one label
	// cache; scheduling only, never results. A coalesced group applies
	// the strictest positive limit of its members.
	AdmissionLimit int
	// UseMux routes this plan's Phase 2 confirmation batches through
	// the process-wide oracle multiplexer (internal/oraclemux), which
	// consolidates in-flight batches from all runs into device batches.
	// Device-side accounting only: results and this plan's simulated
	// charges are bit-identical to direct dispatch. Binding.Dispatch,
	// when set, takes precedence (tests inject private muxes there).
	UseMux bool
	// DeadlineMS bounds the query's simulated cost: once the plan's
	// clock reaches this many simulated milliseconds mid-run, the Top-K
	// loop stops — with an explicitly marked degraded answer when
	// DegradedOK, with core.ErrDeadline otherwise. Charged on the §3.5
	// simclock, so a run that never hits its deadline is bit-identical
	// (results AND charges) to an unbounded one. 0 means no deadline;
	// Normalize clamps negatives to 0.
	DeadlineMS float64
	// Retries caps how many times a transient oracle dispatch failure
	// is retried (per failing dispatch) before the error propagates.
	// 0 means no retries; Normalize clamps negatives to 0.
	Retries int
	// RetryBackoffMS is the initial retry backoff, doubling per attempt
	// and capped at 32× the base. The waits are simulated — charged to
	// simclock.PhaseRetryBackoff, never slept — so retry behavior is
	// deterministic. 0 with Retries > 0 uses DefaultRetryBackoffMS.
	RetryBackoffMS float64
	// DegradedOK lets a run whose deadline expired, or whose oracle
	// stayed down past the retry budget, return proxy-only results
	// carrying an explicit Degraded marker instead of an error. The
	// unconfirmed estimates never enter the label overlay, so degraded
	// answers cannot pollute a shared cache.
	DegradedOK bool
	// Ingest parameterizes the Phase 1 stage for entrypoints that run it
	// (Run, BuildIndex, Extend); plans executed against an existing
	// Artifact ignore it.
	Ingest phase1.Options
}

// Normalize resolves defaults and derived fields, and is the one owner
// of three defaults: a windowed plan with an unset (zero or negative)
// stride becomes tumbling, a zero window sampling fraction becomes
// 0.1 and an unset batch size 8. A frame plan's negative "unset" stride
// is cleared so equal plans compare equal, and negative deadline, retry
// and backoff knobs (meaning "none") become zero; a non-finite deadline
// or backoff is left for Validate to reject. Idempotent.
func (p Plan) Normalize() Plan {
	if p.Window.Enabled() {
		if p.Window.Stride <= 0 {
			p.Window.Stride = p.Window.Size
		}
	} else if p.Window.Stride < 0 {
		p.Window.Stride = 0
	}
	p.Window.SampleFrac = windows.SampleFracOrDefault(p.Window.SampleFrac)
	if p.BatchSize <= 0 {
		p.BatchSize = 8
	}
	if p.DeadlineMS < 0 && finite(p.DeadlineMS) {
		p.DeadlineMS = 0
	}
	if p.Retries < 0 {
		p.Retries = 0
	}
	if p.RetryBackoffMS < 0 && finite(p.RetryBackoffMS) {
		p.RetryBackoffMS = 0
	}
	return p
}

// finite reports whether ms is neither NaN nor infinite.
func finite(ms float64) bool { return !math.IsNaN(ms) && !math.IsInf(ms, 0) }

// Bound selects the Phase 2 confidence computation: the paper's exact
// independent product unless the tuples are correlated (overlapping
// windows) or the caller forces the conservative bound.
func (p Plan) Bound() core.BoundKind {
	if p.ForceUnionBound || p.Window.Overlapping() {
		return core.BoundUnion
	}
	return core.BoundIndependent
}

// Validate checks the source-independent plan shape. Error messages keep
// the public "everest:" prefix — they surface verbatim through the
// adapters.
func (p Plan) Validate() error {
	if p.K <= 0 {
		return fmt.Errorf("everest: K must be positive, got %d", p.K)
	}
	if !(p.Threshold > 0 && p.Threshold <= 1) {
		return fmt.Errorf("everest: threshold must be in (0,1], got %v", p.Threshold)
	}
	if !finite(p.DeadlineMS) || !finite(p.RetryBackoffMS) {
		return fmt.Errorf("everest: deadline %v ms and retry backoff %v ms must be finite", p.DeadlineMS, p.RetryBackoffMS)
	}
	if err := p.Cost.Validate(); err != nil {
		return fmt.Errorf("everest: %w", err)
	}
	if p.Window.Size < 0 {
		return fmt.Errorf("everest: negative window %d", p.Window.Size)
	}
	if !p.Window.Enabled() && p.Window.Stride > 0 {
		return fmt.Errorf("everest: stride %d given without a window", p.Window.Stride)
	}
	return nil
}

// ValidateFor checks the plan against a video of n frames.
func (p Plan) ValidateFor(n int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("everest: empty video")
	}
	if p.Window.Enabled() {
		if nw := windows.NumSlidingWindows(n, p.Window.Size, p.Window.Stride); nw < p.K {
			return fmt.Errorf("everest: only %d windows of %d frames (stride %d) but K=%d",
				nw, p.Window.Size, p.Window.Stride, p.K)
		}
	}
	return nil
}

// NewPlan normalizes and validates a plan in one step.
func NewPlan(p Plan) (Plan, error) {
	p = p.Normalize()
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Compatible reports whether two plans may be coalesced into one engine
// run. Any two valid plans over the same (video, frame count, UDF)
// identity — the identity a Scheduler is keyed by — are compatible:
// K, threshold, window shape, seeds and ablation knobs may all differ,
// because each plan keeps its own Phase 2 loop and clock inside the
// coalesced run and shares only the exact frame scores, which are
// query-independent. The one thing that must match is the simulated
// cost model: a shared oracle confirmation is charged at the cost of
// the plan that triggered it, so mixing cost models inside one group
// would make a plan's bill depend on its co-runners' configuration.
func Compatible(a, b Plan) bool {
	return a.Cost == b.Cost
}

// Knob is one engine setting rendered for plan introspection (EXPLAIN
// and the planner's reports).
type Knob struct {
	Name, Value string
}

// Knobs renders the plan's engine settings in a fixed, deterministic
// order. Knobs that are off and default-zero (admission limit,
// deadline, retries) are omitted so reports stay readable.
func (p Plan) Knobs() []Knob {
	ks := []Knob{
		{"k", fmt.Sprintf("%d", p.K)},
		{"threshold", fmt.Sprintf("%g", p.Threshold)},
	}
	if p.Window.Enabled() {
		ks = append(ks,
			Knob{"window-size", fmt.Sprintf("%d", p.Window.Size)},
			Knob{"window-stride", fmt.Sprintf("%d", p.Window.Stride)},
			Knob{"window-sample-frac", fmt.Sprintf("%g", p.Window.SampleFrac)},
		)
	}
	ks = append(ks, Knob{"batch-size", fmt.Sprintf("%d", p.BatchSize)})
	procs := "auto"
	if p.Procs > 0 {
		procs = fmt.Sprintf("%d", p.Procs)
	}
	ks = append(ks,
		Knob{"procs", procs},
		Knob{"use-mux", fmt.Sprintf("%t", p.UseMux)},
	)
	if p.Ingest.DisableDiff {
		ks = append(ks, Knob{"proxy-cascade", "decode→proxy"})
	} else {
		ks = append(ks, Knob{"proxy-cascade", "decode→diff→proxy"})
	}
	if p.AdmissionLimit > 0 {
		ks = append(ks, Knob{"admission-limit", fmt.Sprintf("%d", p.AdmissionLimit)})
	}
	if p.DeadlineMS > 0 {
		ks = append(ks, Knob{"deadline-ms", fmt.Sprintf("%g", p.DeadlineMS)})
	}
	if p.Retries > 0 {
		ks = append(ks, Knob{"retries", fmt.Sprintf("%d", p.Retries)})
	}
	ks = append(ks, Knob{"seed", fmt.Sprintf("%d", p.Seed)})
	return ks
}

// WorkerPool returns an inert workpool.Pool: nothing in the library
// reads one, and every fan-out runs on transient workers. It remains
// only for the benchmark driver, which still calls it.
func (p Plan) WorkerPool() *workpool.Pool { return workpool.NewPool(p.Procs) }
