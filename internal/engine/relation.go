package engine

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/everest-project/everest/internal/core"
	"github.com/everest-project/everest/internal/diffdet"
	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/windows"
	"github.com/everest-project/everest/internal/workpool"
)

// D0 is built once per artifact, not once per query. Everything in it
// that depends only on Phase 1 — the certain tuple of a Phase 1 label,
// the quantized distribution of a mixture (with its CDF and log-CDF
// tables), what a window aggregates per segment — is the base, memoized
// on the artifact and extended over the tail after an Append. A query
// adds only its label overlay, under one precedence rule for a frame
// that has several scores:
//
//	Phase 1 label  >  cache label  >  proxy mixture
//
// A cache label on a Phase 1 frame is ignored: the index's own oracle
// label is what every query over the index, cached or not, agrees on.
//
// The memo is one list of relations, the frame relation and window
// shapes alike, each under one quantization: built by the first query
// that asks, extended in place after an Append, prepared for Phase 2 by
// the first query that runs over it and extended with it. A frame query
// starts its run from the prepared relation under its labels as point
// masses; a window query re-aggregates only the windows its overlay
// touches — those with a representative the overlay labels and Phase 1
// did not — with the very function that built the memo, in its own
// copy of the relation, and starts from the prepared relation under
// them.

// maxMemos bounds the memo: the most recently used relations stay, the
// least recently used is dropped. An artifact serves one UDF, so it has
// one quantization and one frame relation: five entries hold it and the
// four most recent window shapes. No workload asks for more than the
// frame relation and three shapes.
const maxMemos = 5

// d0Key identifies a memoized D0: the frame relation (size 0) or a
// window shape, stride resolved, under one quantization.
type d0Key struct {
	size, stride int
	qopt         uncertain.QuantizeOptions
}

// d0Key is the key of a query's D0: the frame relation's when w is the
// zero WindowSpec, else the window shape's.
func (w WindowSpec) d0Key(qopt uncertain.QuantizeOptions) d0Key {
	k := d0Key{size: w.Size, stride: w.Stride, qopt: qopt}
	if k.stride <= 0 {
		k.stride = k.size
	}
	return k
}

// d0Entry is one memo entry. rel is D0 with no overlay — a tuple per
// retained frame in Retained order, or every window aggregated; failed
// lists the windows whose aggregation failed (their tuples are
// placeholders, and every query re-aggregates them, so its error is the
// lowest failing window under its own overlay); prep is rel, or a
// prefix of it, prepared for Phase 2 under bound: nil until a query
// asks, and extended over the tail by the first query after rel is.
// Guarded by the artifact's mu. rel and failed grow in place (growTo), so an
// extension costs what it adds: a query holds a prefix of each, and an
// extension writes only past it — a published prefix is never written.
type d0Entry struct {
	key    d0Key
	rel    uncertain.Relation
	failed []int
	prep   *core.Base
	bound  core.BoundKind
}

// d0View is what one query reads of a memo entry, taken under a.mu:
// the entry's relation and failed windows, the frame table and segment
// structure they were built from, the span D, and the window
// aggregation options (Size 0 for the frame relation).
type d0View struct {
	entry  *d0Entry
	rel    uncertain.Relation
	failed []int
	scores []windows.FrameScore
	diff   diffdet.Result
	span   int
	opt    windows.Options
}

// memo returns the view of key's entry, building the entry if it is
// new, and extending it over the tuples appended since it was built.
func (a *Artifact) memo(key d0Key) (d0View, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	scores, err := a.frameScores()
	if err != nil {
		return d0View{}, err
	}
	maxLevel := 0
	if key.qopt.MaxLevel > 0 && key.qopt.MaxLevel < math.MaxInt {
		maxLevel = key.qopt.MaxLevel
	}
	v := d0View{
		entry:  a.entry(key),
		scores: scores,
		diff:   diffdet.Result{RepOf: a.RepOf},
		span:   a.span,
		opt:    windows.Options{Size: key.size, Stride: key.stride, Step: key.qopt.Step, MaxLevel: maxLevel},
	}
	fresh := v.entry == nil
	if fresh {
		v.entry = &d0Entry{key: key}
	}
	e := v.entry
	n := len(a.Retained)
	if key.size != 0 {
		n = windows.NumSlidingWindows(a.TotalFrames, key.size, key.stride)
	}
	if fresh || len(e.rel) < n {
		rel, failed, err := v.extend(a.Retained, n)
		if err != nil {
			return d0View{}, err
		}
		e.rel = rel
		e.failed = append(e.failed, failed...)
		if fresh {
			a.memos = append([]*d0Entry{e}, a.memos[:min(len(a.memos), maxMemos-1)]...)
		}
	}
	v.rel, v.failed = e.rel, e.failed
	return v, nil
}

// extend returns the view's entry's relation grown in place to its n
// tuples — the Retained tail quantized, or the new windows aggregated
// (one that ends within the old frames reads only old frames and old
// representatives, so it is unchanged) — with the new windows whose
// aggregation failed. Only the tail is written, past every prefix a
// query holds.
func (v d0View) extend(retained []int32, n int) (uncertain.Relation, []int, error) {
	old, scores := v.entry.rel, v.scores
	done, rel := len(old), growTo(old, n)
	if v.opt.Size != 0 {
		failed, err := windows.Extend(rel, done, func(rep int) windows.FrameScore { return scores[rep] }, v.diff, v.opt)
		return rel, failed, err
	}
	qopt := v.entry.key.qopt
	for i, f := range retained[done:] {
		fs := scores[f]
		var d uncertain.Dist
		var err error
		if fs.IsExact {
			d = certainAt(fs.Exact, qopt)
		} else if d, err = uncertain.Quantize(fs.Mix, qopt); err != nil {
			d = certainAt(fs.Mix.Mean(), qopt)
		}
		rel[done+i] = uncertain.XTuple{ID: int(f), Dist: d}
	}
	return rel, nil, nil
}

// entry returns the memo entry for key, moved to the front of the
// recency order, or nil. The caller holds a.mu.
func (a *Artifact) entry(key d0Key) *d0Entry {
	for i, e := range a.memos {
		if e.key == key {
			copy(a.memos[1:i+1], a.memos[:i])
			a.memos[0] = e
			return e
		}
	}
	return nil
}

// frameScores returns Phase 1's knowledge of every retained frame,
// indexed by frame (the zero FrameScore elsewhere), extending the
// memoized table in place (growTo) — and the span D = max |i − RepOf[i]|,
// the farthest any frame lies from its representative — over frames
// appended since it was built. A retained frame with neither a label
// nor a mixture is an error (an artifact mutated after Validate), after
// which the table keeps its old length. The caller holds a.mu; the
// returned table is never written again, only its spare capacity.
func (a *Artifact) frameScores() ([]windows.FrameScore, error) {
	done := len(a.scores)
	if done == a.TotalFrames {
		return a.scores, nil
	}
	scores := growTo(a.scores, a.TotalFrames)
	// Retained is ascending, so the frames not yet covered are a suffix.
	tail := sort.Search(len(a.Retained), func(i int) bool { return int(a.Retained[i]) >= done })
	for i, f := range a.Retained[tail:] {
		if s, ok := a.Exact[f]; ok {
			scores[f] = windows.FrameScore{IsExact: true, Exact: s}
		} else if mix := a.Mixtures[tail+i]; len(mix) > 0 {
			scores[f] = windows.FrameScore{Mix: mix}
		} else {
			return nil, missingScore(f)
		}
	}
	for i := done; i < len(a.RepOf); i++ {
		d := i - int(a.RepOf[i])
		a.span = max(a.span, d, -d)
	}
	a.scores = scores
	return scores, nil
}

// prepared returns the view's relation prepared for Phase 2 under the
// given bound, memoized on its entry: the base every query of the entry
// starts from, whatever its overlay. The first query after the entry's
// relation is extended extends the base over the tail (core.Base.Extend),
// never Append; a query under another bound prepares it afresh. Queries
// read it in place; none copies the relation.
func (a *Artifact) prepared(v d0View, bound core.BoundKind) (*core.Base, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := v.entry
	var prep *core.Base
	var err error
	switch {
	case e.prep == nil || e.bound != bound:
		prep, err = core.Prepare(v.rel, bound)
	case e.prep.Len() < len(v.rel):
		prep, err = e.prep.Extend(v.rel)
	default:
		return e.prep, nil
	}
	if err != nil {
		return nil, err
	}
	e.prep, e.bound = prep, bound
	return prep, nil
}

// growTo returns s lengthened to n ≥ len(s), its new elements zero: in
// place when s's capacity allows, else in a new array of capacity
// max(n, 2·cap(s)), so growing one tail at a time costs amortized
// O(tail) and leaves at most as much slack as s holds. s's own elements
// are never written, so a reader holding s is unaffected; the tail is
// zeroed because a failed extension may have written it. (core keeps
// the same rule for a prepared base's live mask.)
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

// certainAt is the point mass at an exact (or stand-in) score's level.
func certainAt(score float64, qopt uncertain.QuantizeOptions) uncertain.Dist {
	return uncertain.Certain(phase1.ClampLevel(uncertain.LevelOf(score, qopt.Step), qopt))
}

// frameOverrides enumerates the label overlay as overrides of a frame
// view's relation (in Retained order, which is ascending ID, as Prepare
// requires): for every cache label on a retained frame Phase 1 did not
// label — the precedence rule above — the frame's position in the
// relation and the point mass at the label's level. It walks the
// overlay once, |labels| steps, each finding its frame by a search
// forward from the last one found (the snapshot's labels come in
// ascending frame order), so a label on a frame outside D0 (one the
// difference detector discarded, or one at or past the artifact's end)
// is never yielded. A nil overlay, or a window view, is the nil
// enumeration.
func (v d0View) frameOverrides(labels *labelstore.Overlay) iter.Seq2[int, uncertain.Dist] {
	if labels == nil || v.opt.Size != 0 {
		return nil
	}
	rel, scores, qopt := v.rel, v.scores, v.entry.key.qopt
	return func(yield func(int, uncertain.Dist) bool) {
		next := 0
		labels.Range(func(f int, s float64) bool {
			if f < 0 || f >= len(scores) || scores[f].IsExact {
				return true
			}
			pos, ok := positionFrom(rel, next, f)
			next = pos
			return !ok || yield(pos, certainAt(s, qopt))
		})
	}
}

// positionFrom returns the position of the tuple with the given ID in
// rel (ascending ID), or where it would be, searching forward from
// position from in doubling steps and then by bisection: O(log of the
// distance) when the IDs asked for ascend. An ID below rel[from]'s is
// searched for from the start.
func positionFrom(rel uncertain.Relation, from, id int) (int, bool) {
	lo := 0
	if from < len(rel) && rel[from].ID <= id {
		lo = from
	}
	// Every position below lo holds a smaller ID; hi is past the end or
	// holds an ID at least id.
	hi, step := lo, 1
	for hi < len(rel) && rel[hi].ID < id {
		lo, hi, step = hi+1, hi+step, 2*step
	}
	hi = min(hi, len(rel))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rel[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(rel) && rel[lo].ID == id
}

// FrameRelation builds the frame-level D0: a copy of the artifact's
// memoized frame relation in which every frame the overlay knows — and
// Phase 1 did not label — is certain. labels, when non-nil, supplies
// exact scores confirmed by earlier queries over the same cache
// (session overlay, or the running overlay of a coalesced group). A nil
// overlay is the uncached path: every uncertain frame keeps its
// mixture. The returned slice is the caller's; the distributions in it
// are shared and immutable. Execute does not call it — it starts a run
// over the prepared relation under the same overrides — but callers
// that want the relation itself do.
func (a *Artifact) FrameRelation(qopt uncertain.QuantizeOptions, labels *labelstore.Overlay) (uncertain.Relation, error) {
	v, err := a.memo(WindowSpec{}.d0Key(qopt))
	if err != nil {
		return nil, err
	}
	rel := make(uncertain.Relation, len(v.rel))
	copy(rel, v.rel)
	if labels != nil {
		for pos, d := range v.frameOverrides(labels) {
			rel[pos].Dist = d
		}
	}
	return rel, nil
}

// touched returns, ascending, the windows a query under labels must
// re-aggregate — nil when it can read the memo as it is. A window is
// touched when one of its representatives is labelled by the overlay
// and not by Phase 1 (the only way an overlay changes Eq. 9), and
// every failed window is touched. The overlay is walked, not the
// windows: each representative it labels marks the windows overlapping
// the frames it represents, found within ±D of it. Marking a window
// that did not change is harmless — re-aggregating it gives it back.
func (v d0View) touched(labels *labelstore.Overlay) []int {
	n := len(v.rel)
	var marks []uint64
	mark := func(lo, hi int) {
		if marks == nil {
			marks = make([]uint64, (n+63)/64)
		}
		for w := lo; w <= hi; w++ {
			marks[w>>6] |= 1 << (w & 63)
		}
	}
	for _, w := range v.failed {
		mark(w, w)
	}
	repOf, size, stride := v.diff.RepOf, v.opt.Size, v.opt.Stride
	labels.Range(func(f int, _ float64) bool {
		if f < 0 || f >= len(repOf) || int(repOf[f]) != f || v.scores[f].IsExact {
			return true
		}
		lo, hi := f, f
		for i := max(0, f-v.span); i < f; i++ {
			if int(repOf[i]) == f {
				lo = i
				break
			}
		}
		for i := min(len(repOf)-1, f+v.span); i > f; i-- {
			if int(repOf[i]) == f {
				hi = i
				break
			}
		}
		// Window w covers [w·stride, w·stride+size).
		first := 0
		if lo >= size {
			first = (lo-size)/stride + 1
		}
		if last := min(n-1, hi/stride); first <= last {
			mark(first, last)
		}
		return true
	})
	count := 0
	for _, m := range marks {
		count += bits.OnesCount64(m)
	}
	if count == 0 {
		return nil
	}
	ids := make([]int, 0, count)
	for i, m := range marks {
		for ; m != 0; m &= m - 1 {
			ids = append(ids, i<<6+bits.TrailingZeros64(m))
		}
	}
	return ids
}

// runStart returns what a run over the view starts from besides the
// prepared base: for a window view whose overlay touches windows, a
// copy of the relation with those re-aggregated under labels — Eq. 9
// with the overlay's exact scores on the representatives it labels and
// Phase 1 did not — and the touched windows, ascending (a window's
// position is its ID); else nil and nil, the run reading the base's
// relation (a frame view under frameOverrides).
func (v d0View) runStart(labels *labelstore.Overlay) (uncertain.Relation, []int, error) {
	if v.opt.Size == 0 {
		return nil, nil, nil
	}
	ids := v.touched(labels)
	if ids == nil {
		return nil, nil, nil
	}
	rel := slices.Clone(v.rel)
	scores := v.scores
	err := windows.Reaggregate(rel, ids, func(rep int) windows.FrameScore {
		fs := scores[rep]
		if !fs.IsExact {
			if s, ok := labels.Get(rep); ok {
				return windows.FrameScore{IsExact: true, Exact: s}
			}
		}
		return fs
	}, v.diff, v.opt)
	if err != nil {
		return nil, nil, err
	}
	return rel, ids, nil
}

// WindowRelation builds the window-level D0 (Eq. 9): a copy of the
// shape's memoized relation with the windows the overlay touches
// re-aggregated — a window query's run relation whenever the overlay
// touches a window. labels, when non-nil, supplies exact scores
// confirmed by earlier queries over the same cache; it must not be
// mutated while this runs. The build runs on the calling goroutine; the
// procs and pool arguments are ignored and remain for the benchmark
// driver.
func (a *Artifact) WindowRelation(w WindowSpec, qopt uncertain.QuantizeOptions, labels *labelstore.Overlay, _ int, _ *workpool.Pool) (uncertain.Relation, error) {
	if !w.Enabled() {
		return nil, fmt.Errorf("everest: window size must be positive, got %d", w.Size)
	}
	v, err := a.memo(w.d0Key(qopt))
	if err != nil {
		return nil, err
	}
	rel, _, err := v.runStart(labels)
	if rel == nil && err == nil {
		rel = slices.Clone(v.rel)
	}
	return rel, err
}
