// Package core implements Everest's primary contribution: Phase 2 of the
// paper — uncertain Top-K query processing with an accurate but
// slow-to-run oracle in the loop (§3.3).
//
// Given an uncertain relation D0 (one x-tuple per retained frame, §3.2)
// and an oracle that can reveal any frame's exact score, the engine
// iteratively
//
//  1. extracts the Top-K result R̂ from the certain tuples D_c
//     (the certain-result condition, §3),
//  2. computes the confidence p̂ = Pr(R̂ = R) in closed form (Eq. 2–3), and
//  3. if p̂ < thres, selects the batch of uncertain frames whose cleaning
//     maximizes the expected next-round confidence E[X_f] (Eq. 4–6),
//     pruned by the ψ upper bound with lazy re-sorting (Eq. 7–8, §3.3.2),
//     and confirms them with the oracle.
//
// All probability products are maintained in log space by
// uncertain.JointCDF; selection work and oracle invocations are charged to
// a simclock.Clock so experiments report the paper's cost breakdown.
//
// D0 is prepared once, then extended over each appended tail, and read
// in place, as §3.3.1 computes F_f and H once: Prepare validates a
// relation and returns an immutable Base that any number of runs share,
// Base.Extend indexes only a tail appended to its relation, and
// Base.Start — the one way a run begins —
// starts a run over it, optionally under an enumeration of overrides
// that give some tuples another distribution: a point mass for a label a
// cache already holds, or a window's re-aggregated distribution, in
// place in the run's own copy of the relation. A run with no override
// clones the base's joint CDF — built once, by the first such run —
// instead of rebuilding it; a run with overrides walks them once, merges
// the base's ranked certain tuples behind them, and sums the joint CDF
// over the view in the order a materialized copy of the view would, but
// only from the first S_k up, the levels a run reads. Either way the run
// is bit-identical to Prepare and Start with no override over that
// materialized relation.
//
// The base also indexes its uncertain tuples by top level, extended in
// place with the rest of it, so that a run pays per ψ re-sort only for
// the frames that can still beat S_k: a frame whose top level is at or
// below S_k has ψ = 0, and S_k only grows.
package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
)

// Oracle reveals exact score levels for frames (or windows). Implementations
// charge their own inference cost to the clock.
type Oracle interface {
	// CleanBatch returns the exact score level of each requested ID, in
	// the same order.
	CleanBatch(ids []int) ([]int, error)
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(ids []int) ([]int, error)

// CleanBatch implements Oracle.
func (f OracleFunc) CleanBatch(ids []int) ([]int, error) { return f(ids) }

// Config controls a Phase 2 run.
type Config struct {
	// K is the result size.
	K int
	// Threshold is thres: the required probability that R̂ is exact.
	Threshold float64
	// BatchSize is b (§3.5 Batch Inference); it must be positive
	// (engine.Plan.Normalize resolves an unset one to the paper's 8).
	BatchSize int
	// DisableEarlyStop turns off the ψ-bound pruning so Select-candidate
	// evaluates E[X_f] for every uncertain frame (ablation A1).
	DisableEarlyStop bool
	// ResortOnce freezes the ψ sort at j = 0 instead of the paper's
	// adaptive schedule (ablation A2).
	ResortOnce bool
	// DisablePrefetch charges each cleaned frame's decode on cleaning
	// (ablation A6); with prefetching (§3.5) the decode of upcoming
	// candidates overlaps oracle compute and costs nothing extra.
	DisablePrefetch bool
	// Bound selects the confidence computation: the paper's exact
	// independent product (default) or the dependence-safe union bound
	// required for overlapping sliding windows.
	Bound BoundKind
	// Ctx, when non-nil, cancels the run: the loop checks it at every
	// select-and-clean boundary and returns ctx.Err() — cancellation is
	// caller abandonment, never a degraded answer. nil means no
	// cancellation.
	Ctx context.Context
	// BudgetMS is the simulated deadline: once the run's clock (which
	// may carry ingest charges the caller accumulated) reaches this many
	// simulated milliseconds, the loop stops — with a degraded result
	// when DegradedOK, with ErrDeadline otherwise. The check is
	// read-only, so charges on runs that never hit the budget are
	// bit-identical to runs with no budget at all. 0 means unbounded.
	BudgetMS float64
	// DegradedOK permits a principled best-effort answer instead of an
	// error when the budget expires or the oracle stays down past the
	// retry budget: the current Top-K estimate — confirmed scores where
	// the oracle got that far, proxy point estimates elsewhere — marked
	// with Result.Degraded. Unconfirmed estimates never reach the label
	// overlay, so a shared cache cannot be polluted by degraded answers.
	DegradedOK bool
}

func (c Config) validate(n int) error {
	if c.K <= 0 {
		return fmt.Errorf("core: K must be positive, got %d", c.K)
	}
	if c.K > n {
		return fmt.Errorf("core: K=%d exceeds relation size %d", c.K, n)
	}
	if c.Threshold <= 0 || c.Threshold > 1 {
		return fmt.Errorf("core: threshold must be in (0,1], got %v", c.Threshold)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("core: batch size must be positive, got %d", c.BatchSize)
	}
	return c.Bound.validate()
}

// Stats reports Phase 2 execution counters (Table 8b).
type Stats struct {
	// Iterations is the number of select-and-clean rounds (batches).
	Iterations int
	// Cleaned is the number of tuples confirmed by the oracle during
	// Phase 2 (excludes tuples already certain in D0).
	Cleaned int
	// Examined is the number of E[X_f] evaluations across all rounds.
	Examined int
	// Pruned is the number of candidates skipped by the ψ bound.
	Pruned int
	// Resorts counts ψ re-sort passes.
	Resorts int
	// BootstrapCleaned counts frames cleaned just to reach |D_c| ≥ K.
	BootstrapCleaned int
	// OracleCalls counts oracle invocations (batches), each paying the
	// per-call overhead of the cost model.
	OracleCalls int
}

// Result is a probabilistically guaranteed Top-K answer — or, when
// Degraded is non-nil, the explicit best-effort answer a bounded run
// settled for.
type Result struct {
	// IDs are the Top-K tuple IDs in descending score order (ties broken
	// by ascending ID). Every ID's score was confirmed by the oracle,
	// except the ones a degraded run lists in Degraded.Unconfirmed.
	IDs []int
	// Levels[i] is the exact score level of IDs[i] (for unconfirmed IDs
	// of a degraded result: the proxy's rounded expected level).
	Levels []int
	// Confidence is p̂ = Pr(R̂ = R) ≥ thres at termination. Under
	// BoundUnion it is a lower bound on that probability. A degraded
	// result reports the p̂ it actually reached, below thres.
	Confidence float64
	// Bound echoes the confidence computation used.
	Bound BoundKind
	// Stats are execution counters.
	Stats Stats
	// Degraded is nil for guaranteed answers. Non-nil marks a
	// best-effort answer returned under Config.DegradedOK, with the
	// explicit provenance of what went unconfirmed and why.
	Degraded *Degraded
}

// Degraded is the provenance of a best-effort answer: which result
// entries are proxy estimates rather than oracle-confirmed scores, what
// stopped the run, and the simulated cost spent before it stopped.
type Degraded struct {
	// Reason is "deadline" (the simulated budget expired) or "oracle"
	// (the oracle stayed down past the retry budget).
	Reason string
	// Unconfirmed lists the result IDs whose Levels/Scores are proxy
	// point estimates, in result order. Empty means every returned score
	// is confirmed but the probabilistic guarantee was not reached.
	Unconfirmed []int
	// SpentMS is the clock's simulated total when the run degraded.
	SpentMS float64
}

// ErrEmptyRelation is returned when the relation has no tuples.
var ErrEmptyRelation = errors.New("core: empty relation")

// ErrDeadline is returned (wrapped) when a run's simulated deadline
// budget expires and the plan did not allow degraded answers.
var ErrDeadline = errors.New("core: simulated deadline exceeded")

// Base is D0 prepared for Phase 2: in strictly ascending ID order, with
// its uncertain positions marked and indexed by top level, its certain
// tuples ranked in the certain set's order (level descending, ID
// ascending) and its level range. It is immutable once prepared and
// safe to share between goroutines; the relation it was prepared from
// must not be written afterwards, though it may grow past its length
// (Extend). The no-exceed accumulator over every uncertain tuple is the
// one thing built later: once, by the first Start the overlay leaves
// untouched.
type Base struct {
	rel    uncertain.Relation
	bound  BoundKind
	live   bitset
	nLive  int
	ranked []certEntry
	lo, hi int
	// byMax[l-maxLo] holds the positions of the uncertain tuples whose
	// top level Dist.Max() is l, ascending: a ψ re-sort reads only the
	// buckets above S_k. An extension appends to each bucket in place,
	// as it grows live.
	byMax [][]int32
	maxLo int

	accOnce sync.Once
	acc     noExceed
}

// Prepare validates a relation — non-empty, in strictly ascending ID
// order (an unordered relation or a duplicate ID is an error) — and
// indexes it, in place, for any number of runs under the given bound:
// the empty base extended over rel. The engine prepares each memoized
// D0 once, then extends its base over each appended tail.
func Prepare(rel uncertain.Relation, bound BoundKind) (*Base, error) {
	if len(rel) == 0 {
		return nil, ErrEmptyRelation
	}
	if err := bound.validate(); err != nil {
		return nil, err
	}
	return (&Base{bound: bound, lo: math.MaxInt, hi: math.MinInt}).Extend(rel)
}

// Extend returns the base of rel, a relation whose first b.Len() tuples
// are b's, indexing only the tail: the tail must continue the strictly
// ascending IDs, its live bits go into a copy of b's mask (a bit per
// tuple: the tail's first bits may share b's last word, which runs over
// b read), its uncertain positions are appended to the spare capacity
// of the top-level buckets when they have enough, and its certain
// tuples, sorted, are merged with b's into a new ranking — exactly what
// Prepare(rel) gives. b is never written: it stays valid for the runs
// that hold it, and on an error nothing but spare capacity is touched.
// An extension writes past b's buckets, so only the latest base of a
// line of extensions may be extended.
func (b *Base) Extend(rel uncertain.Relation) (*Base, error) {
	done := len(b.rel)
	if len(rel) < done {
		return nil, fmt.Errorf("core: extending a base of %d tuples to a relation of %d", done, len(rel))
	}
	e := &Base{rel: rel, bound: b.bound, live: make(bitset, words(len(rel))), nLive: b.nLive, lo: b.lo, hi: b.hi, byMax: b.byMax, maxLo: b.maxLo}
	copy(e.live, b.live)
	var tail []certEntry
	tailLo, tailHi := math.MaxInt, math.MinInt // the tail's uncertain top levels
	for i := done; i < len(rel); i++ {
		x := rel[i]
		if i > 0 && x.ID == rel[i-1].ID {
			return nil, fmt.Errorf("core: duplicate tuple ID %d", x.ID)
		} else if i > 0 && x.ID < rel[i-1].ID {
			return nil, fmt.Errorf("core: tuple ID %d follows %d: the relation is not in ascending ID order", x.ID, rel[i-1].ID)
		}
		e.lo, e.hi = min(e.lo, x.Dist.Min), max(e.hi, x.Dist.Max())
		if x.Dist.IsCertain() {
			tail = append(tail, certEntry{id: x.ID, level: x.Dist.Min})
		} else {
			e.live.set(i)
			e.nLive++
			tailLo, tailHi = min(tailLo, x.Dist.Max()), max(tailHi, x.Dist.Max())
		}
	}
	if e.nLive > b.nLive {
		e.index(done, tailLo, tailHi)
	}
	slices.SortFunc(tail, compareRank)
	e.ranked = mergeRanked(b.ranked, tail)
	return e, nil
}

// index adds the live positions from done on, whose top levels span
// [lo, hi], to the buckets of b, an extension that still holds its
// parent's bucket table. The table is copied, widened to those levels,
// and each bucket grows past the parent's length, so the parent's table
// and its view of every bucket stay as they were.
func (b *Base) index(done, lo, hi int) {
	if len(b.byMax) > 0 {
		lo, hi = min(lo, b.maxLo), max(hi, b.maxLo+len(b.byMax)-1)
	}
	byMax := make([][]int32, hi-lo+1)
	if len(b.byMax) > 0 {
		copy(byMax[b.maxLo-lo:], b.byMax)
	}
	// Each bucket grows once, by what the tail adds to it (growTo);
	// next[l] is where bucket l's next position goes.
	next := make([]int, len(byMax))
	for i := done; i < len(b.rel); i++ {
		if b.live.has(i) {
			next[b.rel[i].Dist.Max()-lo]++
		}
	}
	for l, n := range next {
		next[l] = len(byMax[l])
		byMax[l] = growTo(byMax[l], next[l]+n)
	}
	for i := done; i < len(b.rel); i++ {
		if b.live.has(i) {
			l := b.rel[i].Dist.Max() - lo
			byMax[l][next[l]] = int32(i)
			next[l]++
		}
	}
	b.byMax, b.maxLo = byMax, lo
}

// above returns the top-level buckets over level sk, lowest first.
func (b *Base) above(sk int) [][]int32 {
	return b.byMax[min(max(sk+1-b.maxLo, 0), len(b.byMax)):]
}

// mergeRanked merges two rankings in compareRank order — a total order
// on distinct IDs, so the merge is the sort of their union. An empty
// side returns the other, uncopied.
func mergeRanked(a, b []certEntry) []certEntry {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]certEntry, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if compareRank(a[0], b[0]) < 0 {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// growTo returns s lengthened to n ≥ len(s), its new elements zero: in
// place when s's capacity allows, else in a new array of capacity
// max(n, 2·cap(s)), so growing one tail at a time costs amortized
// O(tail) and leaves at most as much slack as s holds. s's own elements
// are never written, so a reader holding s is unaffected; the tail is
// zeroed because a failed extension may have written it.
func growTo[S ~[]E, E any](s S, n int) S {
	if n <= cap(s) {
		t := s[:n]
		clear(t[len(s):])
		return t
	}
	t := make(S, n, max(n, 2*cap(s)))
	copy(t, s)
	return t
}

// Len returns the number of tuples, |D0|.
func (b *Base) Len() int { return len(b.rel) }

// Engine runs Phase 2 over one uncertain relation. An Engine is
// single-use: construct with Base.Start, call Run once.
//
// Tuples are addressed by their position in rel, which is in strictly
// ascending ID order, so ascending position is ascending ID: the
// selector's scan order, the bootstrap and degraded rankings and the
// oracle call order need no per-tuple hashing, and an ID is turned back
// into a position by binary search.
type Engine struct {
	cfg    Config
	oracle Oracle
	clock  *simclock.Clock
	cost   simclock.CostModel

	// rel is the run's relation, shared and read only; the engine reads
	// a tuple's distribution only while its position is live. live has
	// bit i set while rel[i] is uncertain and not yet cleaned — never
	// for a tuple an override made certain; nLive counts them. It starts
	// as a copy of the base's mask: a word per 64 tuples.
	rel   uncertain.Relation
	live  bitset
	nLive int
	// base is the prepared D0 the run started from, whose top-level
	// buckets a ψ re-sort walks. marked, nil without overrides, holds a
	// bit for every overridden position but a certain one of a base-live
	// tuple (see overrides): the buckets do not index the run's
	// distribution there, so a re-sort skips those positions in them and
	// reads the live ones from the bitset instead.
	base    *Base
	marked  bitset
	prob    noExceed
	certain *certainSet
	sel     *selector
	stats   Stats
}

// Start begins one run over the base. rel is the run's own relation,
// nil meaning the base's; its tuples that are not overridden must be
// the base's. over, when non-nil, enumerates the run's overrides as
// (position, distribution) pairs, each position at most once, in any
// order. A certain override (a point mass) makes its tuple certain at
// that level, a certain base tuple too; an uncertain one must already
// be in place in rel — the base tuple's ID, the very same table — and
// leaves its tuple live, or makes a certain base tuple live. Start
// never writes rel and reads over once; Run never does. A rel of
// another length, a position outside the base or overridden twice, an
// empty distribution or an uncertain override that is not rel's tuple
// is an error. Point masses in the base (Phase 1 training/holdout
// samples) enter the certain set directly, so no oracle work is wasted
// (§3.2).
func (b *Base) Start(cfg Config, rel uncertain.Relation, over iter.Seq2[int, uncertain.Dist], oracle Oracle, clock *simclock.Clock, cost simclock.CostModel) (*Engine, error) {
	if err := cfg.validate(len(b.rel)); err != nil {
		return nil, err
	}
	if cfg.Bound != b.bound {
		return nil, fmt.Errorf("core: a run under the %v bound over a base prepared for %v", cfg.Bound, b.bound)
	}
	if oracle == nil {
		return nil, errors.New("core: nil oracle")
	}
	if rel == nil {
		rel = b.rel
	} else if len(rel) != len(b.rel) {
		return nil, fmt.Errorf("core: a run relation of %d tuples over a base of %d", len(rel), len(b.rel))
	}
	if clock == nil {
		clock = simclock.NewClock()
	}
	e := &Engine{
		cfg:     cfg,
		oracle:  oracle,
		clock:   clock,
		cost:    cost,
		rel:     rel,
		live:    slices.Clone(b.live),
		nLive:   b.nLive,
		base:    b,
		certain: newCertainSet(),
	}
	e.certain.reserve(cfg.K)
	if over == nil {
		e.startBase(b)
	} else if v := e.override(b, over); v.err != nil {
		return nil, v.err
	} else if v.n == 0 {
		e.startBase(b)
	} else {
		e.marked = v.marked
		e.startView(b, v)
	}
	e.sel = newSelector(e)
	return e, nil
}

// overrides is what one pass over a run's overrides leaves besides the
// live bits and the certain set: their count; a bit per position for
// every override but a certain one of a live tuple (whose cleared live
// bit records it), allocated on the first; the certain base tuples
// replaced; the accumulator's level range, the base's widened by the
// uncertain overrides; and the first malformed pair's error.
type overrides struct {
	n         int
	marked    bitset
	nReplaced int
	lo, hi    int
	err       error
}

// bitset is a set of positions, one bit each; nil is the empty set.
type bitset []uint64

// words returns the length of a bitset over n positions.
func words(n int) int { return (n + 63) / 64 }

func (s bitset) has(pos int) bool {
	return s != nil && s[pos/64]&(1<<(pos%64)) != 0
}

func (s bitset) set(pos int) { s[pos/64] |= 1 << (pos % 64) }

func (s bitset) unset(pos int) { s[pos/64] &^= 1 << (pos % 64) }

func (s bitset) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// override makes the one pass over the run's overrides. A certain one
// enters the certain set (which rejects it in O(1) once its top is full
// and the entry ranks below it) and clears a live tuple's bit; an
// uncertain one leaves its tuple live, or makes it live. The pass calls
// over directly rather than ranging over it, which would add the loop's
// own state to what escapes with the callback.
func (e *Engine) override(b *Base, over iter.Seq2[int, uncertain.Dist]) overrides {
	v := overrides{lo: b.lo, hi: b.hi}
	over(func(pos int, d uncertain.Dist) bool {
		switch {
		case pos < 0 || pos >= len(b.rel):
			v.err = fmt.Errorf("core: override position %d outside [0, %d)", pos, len(b.rel))
		case len(d.P) == 0:
			v.err = fmt.Errorf("core: empty distribution overrides position %d", pos)
		case v.marked.has(pos) || b.live.has(pos) && !e.live.has(pos):
			v.err = fmt.Errorf("core: position %d overridden twice", pos)
		case !d.IsCertain() && (e.rel[pos].ID != b.rel[pos].ID || e.rel[pos].Dist.Min != d.Min ||
			len(e.rel[pos].Dist.P) != len(d.P) || &e.rel[pos].Dist.P[0] != &d.P[0]):
			v.err = fmt.Errorf("core: the uncertain override of position %d is not the run relation's tuple", pos)
		}
		if v.err != nil {
			return false
		}
		baseLive, certain := b.live.has(pos), d.IsCertain()
		if certain {
			e.certain.add(b.rel[pos].ID, d.Min)
		} else {
			v.lo, v.hi = min(v.lo, d.Min), max(v.hi, d.Max())
		}
		if baseLive && certain {
			e.live.unset(pos)
			e.nLive--
		} else {
			if v.marked == nil {
				v.marked = make(bitset, words(len(b.rel)))
			}
			v.marked.set(pos)
		}
		if !baseLive {
			v.nReplaced++
			if !certain {
				e.live.set(pos)
				e.nLive++
			}
		}
		v.n++
		return true
	})
	return v
}

// startBase starts a run the overlay leaves untouched: the certain set
// is the top-K prefix of the base's ranked certain tuples and the
// accumulator a clone of its own — O(levels), not O(tuples).
func (e *Engine) startBase(b *Base) {
	e.certain.seed(b.ranked)
	b.accOnce.Do(func() { b.acc = newNoExceed(b.rel, b.live, b.lo, b.hi, b.bound) })
	e.prob = b.acc.clone()
}

// startView finishes the start of a run under at least one override,
// after the pass over them: the base's ranked certain tuples, less the
// replaced ones, are merged into the certain set until its top is full,
// and the accumulator is summed over the run relation's live tuples in
// position order — as a run over the materialized view with no override
// would sum it — but only over the levels a run can read: from the K-th
// certain level S_k⁰ up (see newNoExceed). With fewer than K certain
// tuples, bootstrap's cleaning decides S_k, so the range starts at the
// lowest level of any live tuple, base or override. Certain overrides
// never enter the accumulator, so their levels do not widen it: at a
// level no live tuple reaches, every range answers alike.
func (e *Engine) startView(b *Base, v overrides) {
	var skip func(id int) bool
	if v.nReplaced > 0 {
		skip = func(id int) bool {
			pos, _ := e.position(id)
			return v.marked.has(pos)
		}
	}
	e.certain.merge(b.ranked, v.nReplaced, skip)
	lo := v.lo
	if e.certain.len() >= e.cfg.K {
		lo = e.certain.kth(e.cfg.K)
	}
	e.prob = newNoExceed(e.rel, e.live, lo, v.hi, b.bound)
}

// position returns the index in rel of the tuple with the given ID.
func (e *Engine) position(id int) (int, bool) {
	i := sort.Search(len(e.rel), func(i int) bool { return e.rel[i].ID >= id })
	return i, i < len(e.rel) && e.rel[i].ID == id
}

// Run executes Phase 2 to completion and returns the guaranteed Top-K.
//
// Failure semantics: the loop checks cancellation and the simulated
// deadline at every select-and-clean boundary. Cancellation always
// returns ctx.Err(). An expired budget, or an oracle failure the
// dispatch layer could not retry around, returns ErrDeadline / the
// oracle's error — unless Config.DegradedOK, in which case the run
// settles for an explicitly marked best-effort answer (finishDegraded).
func (e *Engine) Run() (Result, error) {
	if err := e.bootstrap(); err != nil {
		return e.failOrDegrade(err)
	}
	for {
		sk, _ := e.thresholds()
		phat := e.prob.Prob(sk)
		if phat >= e.cfg.Threshold || e.nLive == 0 {
			return e.finish(phat), nil
		}
		// Interrupt checks sit after the success checks: a run that meets
		// its guarantee on the very charge that exhausts the budget still
		// returns the guaranteed answer.
		if e.cfg.Ctx != nil {
			if err := e.cfg.Ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		if e.cfg.BudgetMS > 0 && e.clock.TotalMS() >= e.cfg.BudgetMS {
			if e.cfg.DegradedOK {
				return e.finishDegraded("deadline"), nil
			}
			return Result{}, fmt.Errorf("%w: %.1f of %.1f simulated ms spent, confidence %.4f < %.4f",
				ErrDeadline, e.clock.TotalMS(), e.cfg.BudgetMS, phat, e.cfg.Threshold)
		}
		batch := e.sel.selectBatch()
		if len(batch) == 0 {
			// No uncertain candidates can improve the result; p̂ is final.
			return e.finish(phat), nil
		}
		if err := e.clean(batch); err != nil {
			return e.failOrDegrade(err)
		}
		e.stats.Iterations++
	}
}

// oracleFailure is the classification hook oracle errors implement
// (vision.OracleError does): a failure of the oracle itself, the class
// a degraded run may answer around. Internal errors — a cancelled
// context, a malformed batch — never degrade.
type oracleFailure interface{ OracleFailure() bool }

// failOrDegrade maps a clean/bootstrap error to the run's outcome:
// oracle-availability failures degrade when the plan allows it,
// everything else propagates.
func (e *Engine) failOrDegrade(err error) (Result, error) {
	var of oracleFailure
	if e.cfg.DegradedOK && errors.As(err, &of) && of.OracleFailure() {
		return e.finishDegraded("oracle"), nil
	}
	return Result{}, err
}

// thresholds returns (S_k, S_p): the K-th and (K−1)-st certain scores.
// For K == 1 the penultimate is +∞ (sentinel noPenultimate).
func (e *Engine) thresholds() (sk, sp int) {
	sk = e.certain.kth(e.cfg.K)
	if e.cfg.K == 1 {
		return sk, noPenultimate
	}
	return sk, e.certain.kth(e.cfg.K - 1)
}

// noPenultimate is the S_p sentinel when K == 1: any cleaned score makes
// the frame the new threshold frame, so the "above penultimate" case of
// Eq. 5 never applies.
const noPenultimate = math.MaxInt

// bootstrap ensures |D_c| ≥ K by cleaning the uncertain frames with the
// highest mean scores. With Phase 1 sampling, D0 virtually always has far
// more than K certain tuples already, so this is a no-op in practice.
func (e *Engine) bootstrap() error {
	need := e.cfg.K - e.certain.len()
	if need <= 0 {
		return nil
	}
	type cand struct {
		id   int
		mean float64
	}
	cands := make([]cand, 0, e.nLive)
	for i, x := range e.rel {
		if e.live.has(i) {
			cands = append(cands, cand{x.ID, x.Dist.Mean()})
		}
	}
	if len(cands) < need {
		return fmt.Errorf("core: relation has only %d tuples but K=%d", e.certain.len()+len(cands), e.cfg.K)
	}
	// Descending mean, ascending id for determinism.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].mean != cands[j].mean {
			return cands[i].mean > cands[j].mean
		}
		return cands[i].id < cands[j].id
	})
	ids := make([]int, need)
	for i := 0; i < need; i++ {
		ids[i] = cands[i].id
	}
	if err := e.clean(ids); err != nil {
		return err
	}
	e.stats.BootstrapCleaned = need
	return nil
}

// clean confirms the given uncertain tuples with the oracle and promotes
// them to the certain set.
func (e *Engine) clean(ids []int) error {
	levels, err := e.oracle.CleanBatch(ids)
	if err != nil {
		return fmt.Errorf("core: oracle failed: %w", err)
	}
	if len(levels) != len(ids) {
		return fmt.Errorf("core: oracle returned %d levels for %d ids", len(levels), len(ids))
	}
	// The oracle charges its own inference; cleaning adds the launch.
	ms := e.cost.LaunchOverheadMS(1)
	if e.cfg.DisablePrefetch {
		ms += e.cost.PassMS(len(ids), true)
	}
	e.clock.Charge(simclock.PhaseConfirm, ms)
	e.stats.OracleCalls++
	for i, id := range ids {
		pos, ok := e.position(id)
		if !ok || !e.live.has(pos) {
			return fmt.Errorf("core: cleaning unknown or already-certain tuple %d", id)
		}
		e.prob.Remove(e.rel[pos].Dist)
		e.live.unset(pos)
		e.nLive--
		e.certain.add(id, levels[i])
	}
	e.stats.Cleaned += len(ids)
	return nil
}

func (e *Engine) finish(phat float64) Result {
	ids, levels := e.certain.topK(e.cfg.K)
	e.clock.Charge(simclock.PhaseTopkProb, e.cost.TopkProbMS(e.stats.Iterations+1))
	return Result{IDs: ids, Levels: levels, Confidence: phat, Bound: e.cfg.Bound, Stats: e.stats}
}

// finishDegraded assembles the best-effort answer of an interrupted
// run: every tuple — confirmed ones at their exact level, uncertain
// ones at the proxy's rounded expected level — ranked by (level desc,
// confirmed first, ID asc), truncated to K. Unconfirmed members are
// listed explicitly; their estimates are NEVER written to the label
// overlay (only oracle confirmations are), so nothing unconfirmed can
// leak into a shared cache. Deterministic: a pure function of the
// engine's state at the interrupt point.
func (e *Engine) finishDegraded(reason string) Result {
	type cand struct {
		id, level int
		confirmed bool
	}
	cands := make([]cand, 0, len(e.certain.top)+e.nLive)
	for _, c := range e.certain.top {
		cands = append(cands, cand{id: c.id, level: c.level, confirmed: true})
	}
	for i, x := range e.rel {
		if e.live.has(i) {
			cands = append(cands, cand{id: x.ID, level: int(math.Round(x.Dist.Mean()))})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.level != b.level {
			return a.level > b.level
		}
		if a.confirmed != b.confirmed {
			return a.confirmed
		}
		return a.id < b.id
	})
	k := min(e.cfg.K, len(cands))
	res := Result{
		Bound: e.cfg.Bound,
		Stats: e.stats,
		Degraded: &Degraded{
			Reason:  reason,
			SpentMS: e.clock.TotalMS(),
		},
	}
	res.Confidence = e.Confidence()
	res.IDs = make([]int, k)
	res.Levels = make([]int, k)
	for i := 0; i < k; i++ {
		res.IDs[i] = cands[i].id
		res.Levels[i] = cands[i].level
		if !cands[i].confirmed {
			res.Degraded.Unconfirmed = append(res.Degraded.Unconfirmed, cands[i].id)
		}
	}
	return res
}

// Confidence returns the current p̂ without advancing the engine; used by
// tests and by incremental callers.
func (e *Engine) Confidence() float64 {
	if e.certain.len() < e.cfg.K {
		return 0
	}
	sk, _ := e.thresholds()
	return e.prob.Prob(sk)
}
